"""Exception types shared across the package."""


class NilfillError(Exception):
    """Base class for all package errors."""


class OutOfRange(NilfillError):
    """An integer argument fell outside its documented domain."""


class NotApplicable(NilfillError):
    """A move could not be applied; the trace is corrupt.

    Carries the move index (when replaying a sequence) so that
    validators can report the offending line.
    """

    def __init__(self, reason, move_index=None):
        super().__init__(reason)
        self.reason = reason
        self.move_index = move_index


class LineError(NilfillError):
    """A file line that is not in its file's grammar; carries the 1-based
    line number in the file."""

    prefix = "line"

    def __init__(self, line, reason):
        super().__init__(f"{self.prefix} {line}: {reason}")
        self.line = line
        self.reason = reason


class TraceSyntaxError(LineError):
    """A trace file line that is not in the trace grammar, reported by the
    validator's ``error line=N reason`` verdict."""


class PresentationSyntaxError(LineError):
    """A presentation file line that is not in the file grammar."""

    prefix = "presentation line"


class NotNull(NilfillError):
    """A claimed null-sequence ended at a nonempty word."""

    def __init__(self, final_length):
        super().__init__(f"final word has length {final_length}, expected empty")
        self.final_length = final_length


class NoTransportRelator(NilfillError):
    """The presentation lacks the commutator relator needed to move a block."""


class NotNullHomotopic(NilfillError):
    """The oracle rejected a word that was claimed to be trivial."""


class UnsupportedIndex(NilfillError):
    """Basis selection found a finite index t > 1; outside the supported regime."""

    def __init__(self, detail=""):
        super().__init__(f"selected basis does not have index 1 {detail}".rstrip())


class NotInGammaC(NilfillError):
    """Lie-coordinate extraction on a series with nonzero low-degree terms."""


class InsufficientData(NilfillError):
    """Exponent fitting needs at least four strictly increasing data points."""
