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

from itertools import chain, islice

from .engine import Metrics, PSequence, Transport, replay, validate_null
from .errors import NilfillError, NotApplicable, NotNull, TraceSyntaxError
from .presentations import Presentation, read_text
from .words import NAME_RE, format_letter, parse_word

_PIECE = 1 << 18    # characters of trace text before a piece's cut


def _move_line(move, names) -> str:
    op = move[0]
    if op == "fr":
        return f"fr {move[1]}"
    if op == "fe":
        return f"fe {move[1]} {format_letter(move[2], names)}"
    return f"ar {move[1]} {move[2]} {move[3]} {move[4]} {move[5]}"


class _LineTemplates(dict):
    """Move at offset 0 -> its trace line as a format string with a ``{}``
    for the position, for one ``serialize_trace`` call: a move's line is
    formatted at its first lookup only.  ``swaps`` keeps, for each (shift,
    inv, split) of a ``Transport`` entry, the map from a relator id to the
    line template of its swap.  A presentation's generator names hold no
    brace, so a line needs no escaping."""

    __slots__ = ("names", "swaps")

    def __init__(self, names):
        super().__init__()
        self.names = names
        self.swaps = {}

    def __missing__(self, move):
        # the line written at position 0, which is its fourth character
        line = _move_line((move[0], 0) + move[2:], self.names)
        template = self[move] = line[:3] + "{}" + line[4:]
        return template

    def lines(self, part):
        """The line template of each move of a part, in order: an entry's
        from its relator ids, with no move built."""
        if type(part) is not Transport:
            return map(self.__getitem__, part)
        key = (part.shift, part.inv, part.split)
        table = self.swaps.get(key)
        if table is None:
            table = self.swaps[key] = _SwapLines(key)
        return map(table.__getitem__, part.ids)


class _SwapLines(dict):
    """Relator id -> the line template of a swap whose fields after the id
    are ``fields``, an entry's (shift, inv, split)."""

    __slots__ = ("tail",)

    def __init__(self, fields):
        super().__init__()
        self.tail = " ".join(map(str, fields))

    def __missing__(self, rid):
        template = self[rid] = f"ar {{}} {rid} {self.tail}"
        return template


def _record_lines(record, templates: _LineTemplates) -> str:
    """The trace lines of a record's moves as one format string with a
    ``{}`` for each position, joined from its parts' templates.  The first
    write with these names leaves a marker on the record and the second
    keeps the string, so a record written once (as a power compression's
    are) holds no template."""
    names = templates.names
    text = record.trace_lines.get(names)
    if not text:
        joined = "\n".join(chain.from_iterable(map(templates.lines, record.parts)))
        record.trace_lines[names] = "" if text is None else joined
        return joined
    return text


def _positions(parts, offset: int) -> list:
    """The position of every move of ``parts``, shifted by ``offset``."""
    out = []
    for part in parts:
        if type(part) is Transport:
            out += part.positions_at(offset)
        else:
            out += [mv[1] + offset for mv in part]
    return out


def serialize_trace(seq: PSequence, presentation_path: str) -> str:
    """The trace text of a sequence.  Each distinct move of a flat batch
    is formatted once per call, and looked up for each line: a
    certificate repeats few moves many times.  A ``Transport`` entry, and
    a spliced record, are written with one ``str.format`` of their line
    template, filled with their positions shifted by the segment's
    offset.  A record keeps its template (``_record_lines``); an entry's,
    and a record's first, is joined from per-move and per-relator-id
    templates, each made once per call."""
    pres = seq.presentation
    names = pres.names
    lines = [
        f"word: {pres.format_word(seq.initial)}".rstrip(),
        f"presentation: {presentation_path}",
    ]
    append = lines.append
    text_of = {}        # move -> its line, for this call
    get = text_of.get
    templates = _LineTemplates(names)
    for record, moves, offset in seq.segments:
        if record is not None:
            text = _record_lines(record, templates)
            if text:
                append(text.format(*_positions(record.parts, offset)))
        elif type(moves) is Transport:
            append("\n".join(templates.lines(moves)).format(*moves.positions))
        else:
            for move in moves:
                line = get(move)
                if line is None:
                    line = text_of[move] = _move_line(move, names)
                append(line)
    append("qed")
    append("")          # the final newline, without a copy of the text
    return "\n".join(lines)


def save_trace(seq: PSequence, path, presentation_path: str) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_trace(seq, presentation_path))


class _MoveMemo(dict):
    """Trace body line -> its move, for the parses against one
    presentation (``pres``).  A line is parsed at its first lookup, so
    each distinct line is parsed once and equal lines share one move
    tuple.  A line that is not in the grammar raises NilfillError with
    its reason and is not stored: an integer field must
    be an ASCII decimal integer (``-?[0-9]+``) that ``int()`` takes,
    fields are separated by single spaces and an ``fe`` letter is written
    ``NAME`` or ``NAME^-1``.

    A line is its kind, its position and its tail, the fields after the
    position.  A line is read from its position alone when that is ASCII
    digits that ``int()`` takes and its tail is one the grammar has
    accepted: an ``ar`` line's tail in ``tails``, an ``fe`` letter in
    ``letters``, or no tail for ``fr``.  The grammar reads every other
    line, so it alone gives the refusals."""

    __slots__ = ("letters", "pres", "tails")

    def __init__(self, pres: Presentation):
        super().__init__()
        self.pres = pres
        # each letter in the one form the trace writer gives it
        self.letters = {format_letter(a, pres.names): a
                        for i in range(1, pres.rank + 1) for a in (i, -i)}
        self.tails = {}     # "RID SHIFT INV SPLIT" of an accepted ar line -> its ints

    def __missing__(self, line):
        kind, _, rest = line.partition(" ")
        pos, space, tail = rest.partition(" ")
        move = None
        if pos.isdigit() and pos.isascii():
            try:
                if kind == "ar" and tail in self.tails:
                    move = ("ar", int(pos)) + self.tails[tail]
                elif kind == "fe" and tail in self.letters:
                    move = ("fe", int(pos), self.letters[tail])
                elif kind == "fr" and not space:
                    move = ("fr", int(pos))
            except ValueError:      # int() refuses a position of too many digits
                pass
        if move is None:
            move = self._read(line)
            if kind == "ar":
                self.tails[tail] = move[2:]
        self[line] = move
        return move

    def _read(self, line):
        """The move of a line, by the full grammar."""
        # fields are separated by exactly one space; a tab, a run of
        # spaces, an edge space or a control character leaves the grammar
        parts = line.split(" ") if line.isprintable() else ()
        kind = parts[0] if parts else None
        numbers = line
        try:
            if kind == "fr" and len(parts) == 2:
                move = ("fr", int(parts[1]))
            elif kind == "fe" and len(parts) == 3:
                token = parts[2]        # the letter is read first
                letter = self.letters.get(token)
                if letter is None:
                    name = token.removesuffix("^-1")
                    raise NilfillError(f"unknown generator {name!r}" if NAME_RE.match(name)
                                       else f"bad fe letter token {token!r}")
                numbers = parts[1]      # a letter name may hold "_"
                move = ("fe", int(numbers), letter)
            elif kind == "ar" and len(parts) == 6:
                move = ("ar", int(parts[1]), int(parts[2]), int(parts[3]),
                        int(parts[4]), int(parts[5]))
            else:
                raise NilfillError(f"bad trace line {line!r}")
            # int() also takes "+1", "1_0" and the digits of other scripts
            if not numbers.isascii() or "_" in numbers or "+" in numbers:
                raise ValueError(numbers)
        except ValueError:
            raise NilfillError(f"bad integer in trace line {line!r}") from None
        return move


# A parse's line memo is kept for the next parse while it holds at most
# this many lines (1-3 MB).
MAX_KEPT_LINES = 1 << 13

# The line memo of the last parse, or None.  A parse takes it out while it
# runs, starts afresh if it was made against another presentation, and
# puts its own back if that is small enough.
_kept_memo = None


def _pieces(text: str):
    """``text.splitlines()`` one bounded piece at a time, as (lines, last)
    pairs.  Each cut follows a "\\n", so the pieces' lists join to
    ``text.splitlines()`` and every line boundary stays where it was."""
    start, size = 0, len(text)
    while start < size:
        cut = text.find("\n", start + _PIECE) + 1 or size
        yield text[start:cut].splitlines(), cut == size
        start = cut


def parse_trace(text: str, pres: Presentation):
    """Parse trace text against a presentation; returns (PSequence, pres path).

    Each distinct line is parsed once, and equal lines share one move
    tuple.  The line memo outlives the call while it holds at most
    ``MAX_KEPT_LINES`` lines, so the next parse against the same
    presentation object starts from it: a process that checks many
    certificates of one presentation parses a line they share once.  A
    bad line is never stored, so a warm memo gives the same moves and
    refusals as a cold one.  Raises TraceSyntaxError with the 1-based line
    number of the first line that is not in the grammar.  The text is
    split in pieces, so only one piece's lines are held at a time."""
    global _kept_memo
    pieces = _pieces(text)
    lines, last = next(pieces, ([], True))
    while len(lines) < 2 and not last:      # a long first line fills a piece
        more, last = next(pieces)
        lines += more
    for number, tag in ((1, "word:"), (2, "presentation:")):
        if len(lines) < number or not lines[number - 1].startswith(tag):
            raise TraceSyntaxError(number, f"expected a {tag!r} header line")
    try:
        initial = parse_word(lines[0][len("word:"):].strip(), pres.name_to_index)
    except NilfillError as exc:
        raise TraceSyntaxError(1, str(exc)) from None
    pres_path = lines[1][len("presentation:"):].strip()
    move_of, _kept_memo = _kept_memo, None
    if move_of is None or move_of.pres is not pres:
        move_of = _MoveMemo(pres)
    moves = []
    bad = None          # (line number, reason) of the first bad body line
    before, start = 0, 2    # file lines ahead of `lines`; its first body line
    for lines, last in chain([(lines, last)], pieces):
        end = len(lines)
        if last:        # a header line is never "qed", so a "qed" here ends the body
            if lines[-1] != "qed":
                bad = before + end + 1, "missing final qed line"
                break
            end -= 1
        if bad is None:
            try:
                moves += map(move_of.__getitem__, islice(lines, start, end))
            except NilfillError as exc:
                # every line ahead of the bad one is in the memo by now,
                # and a bad line never is
                index = next(i for i in range(start, end) if lines[i] not in move_of)
                bad = before + index + 1, str(exc)
        before, start = before + len(lines), 0
    if len(move_of) <= MAX_KEPT_LINES:
        _kept_memo = move_of
    if bad is not None:
        raise TraceSyntaxError(*bad)
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
        return 1, f"error line={len(seq) + 3} final word nonempty ({exc.final_length} letters)"
    return 0, format_ok(metrics)


def format_ok(metrics: Metrics) -> str:
    return f"ok area={metrics.area} fl={metrics.fl} height={metrics.height}"
