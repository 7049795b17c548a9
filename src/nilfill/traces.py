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

from itertools import islice

from .engine import Metrics, PSequence, replay, validate_null
from .errors import NilfillError, NotApplicable, NotNull, TraceSyntaxError
from .presentations import Presentation, read_text
from .words import format_letter, parse_word


def _move_line(move, names) -> str:
    op = move[0]
    if op == "fr":
        return f"fr {move[1]}"
    if op == "fe":
        return f"fe {move[1]} {format_letter(move[2], names)}"
    return f"ar {move[1]} {move[2]} {move[3]} {move[4]} {move[5]}"


def serialize_trace(seq: PSequence, presentation_path: str) -> str:
    """The trace text of a sequence.  Each distinct move is formatted once
    per call: a certificate repeats few moves many times."""
    pres = seq.presentation
    names = pres.names
    lines = [
        f"word: {pres.format_word(seq.initial)}".rstrip(),
        f"presentation: {presentation_path}",
    ]
    append = lines.append
    text_of = {}        # move -> its line, for this call
    get = text_of.get
    for move in seq.moves:
        line = get(move)
        if line is None:
            line = text_of[move] = _move_line(move, names)
        append(line)
    append("qed")
    return "\n".join(lines) + "\n"


def save_trace(seq: PSequence, path, presentation_path: str) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_trace(seq, presentation_path))


def _parse_move(line: str, runs, name_to_index) -> tuple:
    """The move of one trace body line; ValueError or NilfillError when the
    line is not in the grammar."""
    parts = line.split()
    kind = parts[0] if parts else None
    if kind == "fr" and len(parts) == 2:
        return ("fr", int(parts[1]))
    if kind == "fe" and len(parts) == 3:
        token = parts[2]
        letter_word = parse_word(token, name_to_index, runs)
        if len(letter_word) != 1:
            raise NilfillError(f"bad fe letter token {token!r}")
        return ("fe", int(parts[1]), letter_word[0])
    if kind == "ar" and len(parts) == 6:
        return ("ar", int(parts[1]), int(parts[2]), int(parts[3]),
                int(parts[4]), int(parts[5]))
    raise NilfillError(f"bad trace line {line!r}")


def parse_trace(text: str, pres: Presentation):
    """Parse trace text against a presentation; returns (PSequence, pres path).

    Each distinct line is parsed once per call, and equal lines share one
    move tuple.  Raises TraceSyntaxError with the 1-based line number of
    the first line that is not in the grammar."""
    lines = text.splitlines()
    for number, tag in ((1, "word:"), (2, "presentation:")):
        if len(lines) < number or not lines[number - 1].startswith(tag):
            raise TraceSyntaxError(number, f"expected a {tag!r} header line")
    runs = {}           # word token -> letters, for this parse
    try:
        initial = parse_word(lines[0][len("word:"):].strip(), pres.name_to_index, runs)
    except NilfillError as exc:
        raise TraceSyntaxError(1, str(exc)) from None
    pres_path = lines[1][len("presentation:"):].strip()
    if len(lines) < 3 or lines[-1] != "qed":
        raise TraceSyntaxError(len(lines) + 1, "missing final qed line")
    end = len(lines) - 1
    move_of = dict.fromkeys(islice(lines, 2, end))  # line -> move, by first use
    name_to_index = pres.name_to_index
    for line in move_of:
        try:
            move_of[line] = _parse_move(line, runs, name_to_index)
        except (ValueError, NilfillError) as exc:
            reason = (f"bad integer in trace line {line!r}"
                      if isinstance(exc, ValueError) else str(exc))
            raise TraceSyntaxError(lines.index(line, 2) + 1, reason) from None
    moves = list(map(move_of.__getitem__, islice(lines, 2, end)))
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
