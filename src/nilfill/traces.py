"""Trace files: a bit-exact, line-oriented serialization of P-sequences.

    word: <WORD>
    presentation: <file>
    fr <pos>
    fe <pos> <letter>
    ar <pos> <relator_id> <shift> <inv:0|1> <split>
    qed

The validator's one-line verdict is `ok area=.. fl=.. height=..` or
`error line=<n> <reason>`; the line number points into the trace file.
"""

from __future__ import annotations

from .engine import Metrics, PSequence, replay, validate_null
from .errors import NilfillError, NotApplicable, NotNull, TraceSyntaxError
from .presentations import Presentation, read_text
from .words import format_letter, parse_word


def serialize_trace(seq: PSequence, presentation_path: str) -> str:
    pres = seq.presentation
    lines = [
        f"word: {pres.format_word(seq.initial)}".rstrip(),
        f"presentation: {presentation_path}",
    ]
    append = lines.append
    names = pres.names
    for move in seq.moves:
        op = move[0]
        if op == "fr":
            append(f"fr {move[1]}")
        elif op == "fe":
            append(f"fe {move[1]} {format_letter(move[2], names)}")
        else:
            append(f"ar {move[1]} {move[2]} {move[3]} {move[4]} {move[5]}")
    append("qed")
    return "\n".join(lines) + "\n"


def save_trace(seq: PSequence, path, presentation_path: str) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_trace(seq, presentation_path))


def parse_trace(text: str, pres: Presentation):
    """Parse trace text against a presentation; returns (PSequence, pres path).

    Raises TraceSyntaxError with the 1-based line number of the first line
    that is not in the grammar."""
    lines = text.splitlines()
    for number, tag in ((1, "word:"), (2, "presentation:")):
        if len(lines) < number or not lines[number - 1].startswith(tag):
            raise TraceSyntaxError(number, f"expected a {tag!r} header line")
    try:
        initial = parse_word(lines[0][len("word:"):].strip(), pres.name_to_index)
    except NilfillError as exc:
        raise TraceSyntaxError(1, str(exc)) from None
    pres_path = lines[1][len("presentation:"):].strip()
    if len(lines) < 3 or lines[-1] != "qed":
        raise TraceSyntaxError(len(lines) + 1, "missing final qed line")
    moves = []
    append = moves.append
    letters = {}        # fe letter token -> letter, for this parse
    name_to_index = pres.name_to_index
    for number, line in enumerate(lines[2:-1], 3):
        parts = line.split()
        kind = parts[0] if parts else None
        try:
            if kind == "fr" and len(parts) == 2:
                append(("fr", int(parts[1])))
            elif kind == "fe" and len(parts) == 3:
                token = parts[2]
                letter = letters.get(token)
                if letter is None:
                    letter_word = parse_word(token, name_to_index)
                    if len(letter_word) != 1:
                        raise NilfillError(f"bad fe letter token {token!r}")
                    letter = letters[token] = letter_word[0]
                append(("fe", int(parts[1]), letter))
            elif kind == "ar" and len(parts) == 6:
                append(("ar", int(parts[1]), int(parts[2]), int(parts[3]),
                        int(parts[4]), int(parts[5])))
            else:
                raise NilfillError(f"bad trace line {line!r}")
        except ValueError:
            raise TraceSyntaxError(number, f"bad integer in trace line {line!r}") from None
        except NilfillError as exc:
            raise TraceSyntaxError(number, str(exc)) from None
    return PSequence(pres, initial, moves), pres_path


def load_trace(path, pres: Presentation):
    """Read and parse a trace file; a byte that is not UTF-8 is a
    TraceSyntaxError on its line."""
    return parse_trace(read_text(path, TraceSyntaxError), pres)


def verdict_line(seq: PSequence, require_null: bool = True) -> tuple:
    """(exit_code, line) verdict for a parsed trace.

    With ``require_null`` the final word must be empty (a null-sequence
    certificate); otherwise any fully replayable trace is accepted."""
    try:
        if require_null:
            metrics = validate_null(seq)
        else:
            metrics, _ = replay(seq)
    except NotApplicable as exc:
        return 1, f"error line={exc.move_index + 3} {exc.reason}"
    except NotNull as exc:
        return 1, f"error line={len(seq.moves) + 3} final word nonempty ({exc.final_length} letters)"
    return 0, format_ok(metrics)


def format_ok(metrics: Metrics) -> str:
    return f"ok area={metrics.area} fl={metrics.fl} height={metrics.height}"
