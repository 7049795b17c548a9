"""P-sequence moves, the move kernel, replay and sequence rewrites.

A move is a plain tuple:

    ("fr", pos)                          free reduction at pos
    ("fe", pos, letter)                  insert letter letter^-1 at pos
    ("ar", pos, rid, shift, inv, split)  relator application

For a relator application, let r' be the cyclic rotation by ``shift`` of
relator ``rid`` (inverted first when ``inv``).  The move replaces the
prefix u = r'[:split], which must occur at ``pos``, by v = (r'[split:])^-1,
so that u v^-1 is a cyclic conjugate of the relator or its inverse.
Positions are 0-based letter indices into the current word; a stale
position makes the trace invalid, it is never repaired.

``apply_moves`` checks moves: the validator's replay and every builder
batch go through it, and ``SequenceBuilder`` records the batches it
accepts.  It reads a move's u and v from a template, and a run of swaps
(each an application that moves a block W one letter: u = t W -> v = W t,
or u = W t -> v = t W) from the swap tables of the relator pool
(``RelatorPool``): after the first swap of a run, one loop serves both
directions, checking each next swap by its position, its range and one
table lookup against the word's letter, and writes the run with one
slice assignment.

A builder's block transport has one entry, ``SequenceBuilder.transport``:
it checks the move once per distinct letter passed and records it as one
segment entry (a ``Transport``: the positions, each swap's relator id and
the shared fields), or else hands ``apply_moves`` one move per letter.
``replay`` proves an entry the same way, reading the letters passed off
its ids (``_apply_transport``), and expands it into moves for
``apply_moves`` only when a check fails, so a refusal keeps the kernel's
reason and index.
``SequenceBuilder.splice`` applies a batch the kernel has already checked
(a ``CheckedMoves`` record of the flat batches and entries its builder
checked) by its effect wherever the subword it was checked on sits.  A
``PSequence`` keeps its moves as (part, offset) segments, a part being a
flat batch, an entry or a record, each read with its positions shifted
by the offset: a builder keeps each batch at the offset the kernel
checked it at.  ``iter_moves`` walks the moves one at a time for a
one-pass reader, and ``moves`` is a new list of them on each read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, count, islice, repeat
from operator import neg

from .errors import NotApplicable, NotNull
from .words import MAX_WORD_LENGTH, Word, inverse_word

# A template is cached only for a relator of at most this many letters (the
# longest relator built, on the class-4 chain, has 46): a longer relator's
# template is cut again for each move, at the cost of applying it, so the
# cache holds at most twice this many letters per trace line.
MAX_CACHED_RELATOR = 64


class RelatorPool:
    """A relator set, by id, and the tables the kernel keeps for it: the
    presentation's relators (``Presentation``) at a filling's outer level,
    the commutators a ``ChainContext`` names on a carry's inner levels.
    The tables fill as moves are checked, and every builder and replay on
    the pool shares them:

    - ``_move_templates``: key (rid, shift, inv, split) of an ``ar`` move
      -> its template (``_template``), for relators of at most
      ``MAX_CACHED_RELATOR`` letters;
    - ``_swap_tables``: (side, *block) -> (block, {key: letter passed}),
      the cached templates that swap the block that way;
    - ``_last_relator``: (rid, r, r^-1), as lists, of the last relator a
      template was cut from;
    - ``_transport_ids``: block chain -> t -> id of [t, chain], kept by
      ``relator_id``; a subclass's ``_name(chain)`` supplies a missing id."""

    def __init__(self, relators, rank: int):
        self.relators = relators
        self.rank = rank
        self._move_templates: dict = {}
        self._swap_tables: dict = {}
        self._last_relator = None
        self._transport_ids: dict = {}

    def relator_id(self, chain) -> int:
        """Id of the nested commutator of ``chain``, the relator of a block's
        swap with a letter."""
        rid = self._transport_ids.get(chain[1:], {}).get(chain[0])
        if rid is None:
            rid = self._name(chain)
            self._transport_ids.setdefault(chain[1:], {})[chain[0]] = rid
        return rid


@dataclass(frozen=True)
class Metrics:
    area: int
    fl: int
    height: int
    final_length: int


class Transport:
    """A checked block transport as one segment entry: swap i is the
    relator application ("ar", start + i * step, ids[i], shift, inv,
    split).  ``positions``, that range, is built from the ids' length, and
    ``ids`` is a tuple, so an entry costs one pointer per swap; its length
    is its number of swaps, and iterating it builds its moves in order."""

    __slots__ = ("positions", "ids", "shift", "inv", "split")

    def __init__(self, start: int, step: int, ids: tuple, shift: int, inv: int,
                 split: int):
        self.positions = range(start, start + step * len(ids), step)
        self.ids = ids
        self.shift = shift
        self.inv = inv
        self.split = split

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        return self.at(0)

    def at(self, offset: int):
        """Its moves in order, each position shifted by ``offset``."""
        return zip(repeat("ar"), self.positions_at(offset), self.ids,
                   repeat(self.shift), repeat(self.inv), repeat(self.split))

    def positions_at(self, offset: int) -> range:
        """Its positions, each shifted by ``offset``."""
        p = self.positions
        return range(p.start + offset, p.stop + offset, p.step) if offset else p


class PSequence:
    """A move sequence from ``initial``, kept as segments.  A segment is a
    pair (part, offset): the part's moves act with every position shifted
    by ``offset``.  A part is a flat batch (a list or tuple of moves, as
    the kernel checked it at that offset), a builder's ``Transport`` entry
    or a spliced ``CheckedMoves`` record, whose own parts all sit at the
    segment's offset; ``_parts`` is the one place that opens a record.
    ``PSequence(pres, initial, moves)`` is one flat segment at offset 0.
    ``metrics`` is what the builder measured while it checked every move;
    None for a sequence that was not built (parsed or rewritten), whose
    metrics ``replay`` gives."""

    __slots__ = ("presentation", "initial", "segments", "metrics")

    def __init__(self, presentation: RelatorPool, initial: Word, moves=(),
                 metrics: "Metrics | None" = None, segments=None):
        self.presentation = presentation
        self.initial = initial
        self.segments = [(moves, 0)] if segments is None else segments
        self.metrics = metrics

    def __len__(self):
        return _height(self.segments)

    @property
    def moves(self) -> list:
        """Every move at its place in the whole sequence, as a new list on
        each read."""
        return list(iter_moves(self.segments))


def _parts(segments):
    """(part, offset) of every flat batch and ``Transport`` entry of
    ``segments``, in order, a spliced record's parts at its offset."""
    for part, offset in segments:
        if type(part) is CheckedMoves:
            for inner in part.parts:
                yield inner, offset
        else:
            yield part, offset


def _height(segments) -> int:
    return sum(len(part) for part, _ in _parts(segments))


def iter_moves(segments):
    """Every move of ``segments`` at its place, one at a time: each part's
    moves shifted by its offset, an entry's moves as it builds them."""
    return chain.from_iterable(_shifted(part, offset) for part, offset in _parts(segments))


def _template(pool, key, index: int):
    """(u, v, len(v) - len(u), left, right) for the relator application
    whose fields after the position are ``key``, checked.  With rv the
    relator read (r, or r^-1 when ``inv``) and rw its inverse, u is
    rv[shift:] followed by its start, and v, the inverse of the rest of
    the rotation, is the slice of rw that mirrors it, both cut from the
    pool's ``_last_relator``.  A cached template that swaps a block W with
    a letter t enters its key in the swap table of that block and side:
    ``left`` is the block's (W, table) pair when the application is
    u = t W -> v = W t (the block moves left past t = u[0]), ``right``
    when it is u = W t -> v = t W (right past t = u[-1]); otherwise None,
    as for every uncached template.  A single-letter block's swap a b ->
    b a reads both ways."""
    if len(key) != 4:
        raise NotApplicable("relator application needs five fields", index)
    rid, shift, inv, split = key
    if not 0 <= rid < len(pool.relators):
        raise NotApplicable(f"relator id {rid} out of range", index)
    r = pool.relators[rid]
    n = len(r)
    if not 0 <= shift < n:
        raise NotApplicable(f"shift {shift} out of range for relator {rid}", index)
    if inv not in (0, 1):
        raise NotApplicable(f"inversion flag {inv} is not 0 or 1", index)
    if not 0 <= split <= n:
        raise NotApplicable(f"split {split} out of range for relator {rid}", index)
    slot = pool._last_relator
    if slot is None or slot[0] != rid:
        slot = pool._last_relator = (rid, list(r), list(inverse_word(r)))
    rv, rw = (slot[2], slot[1]) if inv else (slot[1], slot[2])
    end = shift + split
    if end <= n:
        u, v = rv[shift:end], rw[n - shift:] + rw[:n - end]
    else:
        u, v = rv[shift:] + rv[:end - n], rw[n - shift:2 * n - end]
    if n > MAX_CACHED_RELATOR:
        return u, v, len(v) - len(u), None, None
    left = right = None
    if split > 1 and len(v) == split:
        tables = pool._swap_tables
        head, tail = v[:-1], v[1:]
        if u[0] == v[-1] and u[1:] == head:
            left = tables.setdefault(("left", *head), (head, {}))
            left[1][key] = u[0]
        if u[-1] == v[0] and u[:-1] == tail:
            right = tables.setdefault(("right", *tail), (tail, {}))
            right[1][key] = u[-1]
    template = pool._move_templates[key] = (u, v, len(v) - len(u), left, right)
    return template


def apply_moves(word: list, moves, pres: RelatorPool, offset: int = 0):
    """Apply ``moves``, each position shifted by ``offset``, to ``word`` in
    place; returns (area, fl) of the batch, fl counting the starting word.

    Every move is checked before it changes the word: range, content and
    the word-length bound ``MAX_WORD_LENGTH``; the check that fails raises
    NotApplicable with its own reason and the move's index within ``moves``.

    ``moves`` is a list or tuple.  After a swap, the moves that continue it
    one position at a time, leftwards or rightwards, are checked and
    written as one run by one loop (``_continue_run``); the first move that
    does not continue the run is checked here as any other move, so a
    refusal has the reason, the index and the word that one move per call
    gives."""
    templates = pres._move_templates
    rank = pres.rank
    n = fl = len(word)
    area = 0
    last = len(moves) - 1
    steps = enumerate(moves)
    for i, move in steps:
        op = move[0]
        p = move[1] + offset
        if op == "ar":
            t = templates.get(move[2:])
            if t is None:
                t = _template(pres, move[2:], i)
            u, v, grow, left, right = t
            q = p + move[5]
            if p < 0 or q > n:
                raise NotApplicable(f"relator application at {p} out of range", i)
            if word[p:q] != u:
                raise NotApplicable(f"word does not carry relator prefix at {p}", i)
            n += grow
            if n > fl:
                if n > MAX_WORD_LENGTH:
                    raise NotApplicable(f"word longer than {MAX_WORD_LENGTH} letters", i)
                fl = n
            word[p:q] = v
            area += 1
            if i < last and (left or right):
                k = _continue_run(word, moves, i + 1, p, offset, n, left, right)
                if k:
                    area += k
                    next(islice(steps, k - 1, None))
        elif op == "fr":
            if p < 0 or p + 1 >= n:
                raise NotApplicable(f"free reduction at {p} out of range", i)
            if word[p] != -word[p + 1]:
                raise NotApplicable(f"letters at {p},{p + 1} are not an inverse pair", i)
            del word[p : p + 2]
            n -= 2
        elif op == "fe":
            a = move[2]
            if p < 0 or p > n:
                raise NotApplicable(f"free expansion at {p} out of range", i)
            if not 0 < abs(a) <= rank:
                raise NotApplicable(f"free expansion letter {a} names no generator", i)
            n += 2
            if n > fl:
                if n > MAX_WORD_LENGTH:
                    raise NotApplicable(f"word longer than {MAX_WORD_LENGTH} letters", i)
                fl = n
            word[p:p] = (a, -a)
        else:
            raise NotApplicable(f"unknown move kind {op!r}", i)
    return area, fl


def _continue_run(word, moves, j, p, offset, n, left, right) -> int:
    """How many moves from ``moves[j]`` on continue the swap just applied at
    ``p``, each checked as it is read; the run is then written to ``word``
    in one slice assignment.  The next move's position step s picks the
    swap's reading: -1 a left one (``left``, passing the letter before the
    block), +1 a right one (``right``, passing the letter after it); each
    is the (block, table) pair of the block's swaps that way.  A move
    continues the run while the index q of the next letter passed is in
    the word (``stop`` is -1 or n), the move is an ``ar`` at q + d (d takes
    off ``offset``, and the block's length on a right run), and the table
    maps its fields after the position to word[q]: one lookup, since a key
    is in the table exactly when its cached template swaps the same block
    the same way.  The first move that does not continue the run ends it,
    and the kernel checks it as any other move."""
    m = moves[j]
    s = m[1] + offset - p
    if s == -1 and left:
        (block, table), q, d, stop = left, p - 1, -offset, -1
    elif s == 1 and right:
        block, table = right
        q, d, stop = p + 1 + len(block), -len(block) - offset, n
    else:
        return 0
    passes = table.get
    first, end = q, len(moves)
    while q != stop and m[0] == "ar" and m[1] == q + d and passes(m[2:]) == word[q]:
        q += s
        j += 1
        if j == end:
            break
        m = moves[j]
    if q != first:
        if s < 0:
            word[q + 1:p + len(block)] = block + word[q + 1:p]
        else:
            word[p + 1:q] = word[first:q] + block
    return (q - first) * s


def _apply_transport(word: list, entry: Transport, pool: RelatorPool, offset: int) -> bool:
    """Apply the swaps of ``entry`` at ``offset`` to ``word`` as one move,
    proved as ``SequenceBuilder.transport`` proves it, read from ids to
    letters; True when applied.  The positions' step names the side, the
    template of each distinct key (cached, or built by ``_template`` with
    all of its checks) must swap one and the same block that way, and its
    swap table gives the letter each id passes.  With the block at the
    first position, the run inside the word and the letters passed equal
    to those of the ids, every swap passes the checks of ``apply_moves``.
    On a failed check the word is untouched and the caller expands the
    entry for ``apply_moves``, which names the refusal."""
    positions, ids = entry.positions, entry.ids
    k, step = len(ids), positions.step
    if not k or step not in (1, -1):
        return False
    side = 4 if step > 0 else 3
    templates, fields = pool._move_templates, (entry.shift, entry.inv, entry.split)
    pair, letter_of = None, {}
    for rid in set(ids):
        key = (rid, *fields)
        template = templates.get(key)
        if template is None:
            try:
                template = _template(pool, key, 0)
            except NotApplicable:
                return False
        if pair is None:
            pair = template[side]
        if pair is None or template[side] is not pair:
            return False
        letter_of[rid] = pair[1][key]
    block = pair[0]
    L, n, p = len(block), len(word), positions.start + offset
    passed = list(map(letter_of.__getitem__, ids))
    if step > 0:
        # swap i replaces W t at p + i by t W: the block passes word[p + L + i]
        if p < 0 or p + L + k > n or word[p:p + L] != block:
            return False
        letters = word[p + L:p + L + k]
        if letters != passed:
            return False
        word[p:p + L + k] = letters + block
    else:
        # swap i replaces t W at p - i by W t: the block passes word[p - i]
        lo = p - k + 1
        if lo < 0 or p + 1 + L > n or word[p + 1:p + 1 + L] != block:
            return False
        letters = word[lo:p + 1]
        if letters[::-1] != passed:
            return False
        word[lo:p + 1 + L] = block + letters
    return True


@dataclass(frozen=True)
class CheckedMoves:
    """A move batch at offset 0 and its effect, as the kernel found it on
    ``before`` alone: the batch turns ``before`` into ``after`` with
    ``area`` relator applications, and its peak word length is
    ``len(before) + grow``.  The batch is kept as the parts its builder
    checked, in order, none of them empty: flat batches (tuples of moves)
    and ``Transport`` entries, at offset 0.  ``before`` and ``after`` are
    lists, which ``splice`` compares with a word slice and writes into
    one; they are never mutated.  ``trace_lines`` belongs to the trace
    writer: it maps a presentation's letter names to the record's trace
    lines as one format string, kept from the second time the record is
    written with them (after the first, an empty string marks the
    names)."""

    parts: tuple
    before: list
    after: list
    area: int
    grow: int
    trace_lines: dict = field(default_factory=dict, compare=False, repr=False)


def _shifted(moves, offset: int):
    """The moves of ``moves``, a flat batch or a ``Transport`` entry, with
    every position shifted by ``offset``: ``moves`` itself when ``offset``
    is 0, else a list, or for an entry an iterator of its moves."""
    if not offset:
        return moves
    if type(moves) is Transport:
        return moves.at(offset)
    return [("ar", m[1] + offset, m[2], m[3], m[4], m[5]) if m[0] == "ar"
            else ("fr", m[1] + offset) if m[0] == "fr"
            else ("fe", m[1] + offset, m[2])
            for m in moves]


def replay(seq: PSequence):
    """Apply all moves; return (Metrics, final word).  Deterministic.

    A flat batch goes to ``apply_moves`` at its offset; a ``Transport``
    entry is applied as one checked move (``_apply_transport``), or, when
    a check fails, expanded into its moves for ``apply_moves``.  A refused
    move raises NotApplicable carrying its index in the whole sequence."""
    word = list(seq.initial)
    pres = seq.presentation
    area, fl, done = 0, len(word), 0
    for moves, offset in _parts(seq.segments):
        if type(moves) is Transport:
            if _apply_transport(word, moves, pres, offset):
                area += len(moves)
                done += len(moves)
                continue
            moves = list(moves)
        try:
            batch_area, batch_fl = apply_moves(word, moves, pres, offset)
        except NotApplicable as exc:
            raise NotApplicable(exc.reason, done + exc.move_index) from None
        area += batch_area
        if batch_fl > fl:
            fl = batch_fl
        done += len(moves)
    final = tuple(word)
    return Metrics(area, fl, done, len(final)), final


def validate_null(seq: PSequence) -> Metrics:
    """Replay and additionally require the final word to be empty."""
    metrics, final = replay(seq)
    if final:
        raise NotNull(len(final))
    return metrics


def normalize_insertions(seq: PSequence) -> PSequence:
    """Rewrite every relator application into whole-word insertion form.

    A split-k application of rotation r' (replace u by v) becomes the
    insertion of u^-1 v right after u, followed by k free reductions.
    Area is unchanged, the filling length grows by at most C, and the
    endpoints are untouched.  A pure rewrite: the moves are not checked
    here, but wherever the result is applied.
    """
    relators = seq.presentation.relators
    out = []
    for move in iter_moves(seq.segments):
        if move[0] == "ar" and move[5] > 0:
            _, p, rid, shift, inv, split = move
            n = len(relators[rid])
            out.append(("ar", p + split, rid, (shift + split) % n, inv, 0))
            out += block_reduction_moves(p, split)
        else:
            out.append(move)
    return PSequence(seq.presentation, seq.initial, out)


def mirror_move(move, n: int, relators):
    """(mirrored move, length after) for ``move`` on a word of length ``n``:
    the mirrored move does to the inverse word what ``move`` does to the
    word, so it leaves the inverse of the word ``move`` leaves."""
    op = move[0]
    if op == "fr":
        return ("fr", n - move[1] - 2), n - 2
    if op == "fe":
        return ("fe", n - move[1], move[2]), n + 2
    _, p, rid, shift, inv, split = move
    lr = len(relators[rid])
    return (("ar", n - p - split, rid, (lr - shift - split) % lr, 1 - inv, split),
            n + lr - 2 * split)


def invert_sequence(seq: PSequence) -> PSequence:
    """The sequence obtained by inverting every word of ``seq``.

    Replays from inverse(initial) to inverse(final) with identical area,
    filling length and height; each move is mirrored by ``mirror_move``.
    A pure rewrite that tracks only the word length: the moves are checked
    wherever the result is applied.
    """
    relators = seq.presentation.relators
    n = len(seq.initial)
    out = []
    for move in iter_moves(seq.segments):
        mirrored, n = mirror_move(move, n, relators)
        out.append(mirrored)
    return PSequence(seq.presentation, inverse_word(seq.initial), out)


def reduction_steps(w) -> list:
    """(position, letter) of each cancellation of a greedy left-to-right
    free reduction of w, in order; the letter is the left one of its pair."""
    stack: list = []
    steps = []
    for a in w:
        if stack and stack[-1] == -a:
            stack.pop()
            steps.append((len(stack), -a))
        else:
            stack.append(a)
    return steps


# -- compound emissions: move lists for SequenceBuilder.extend -----------------


def pair_inverse_moves(pos: int, block: Word) -> list:
    """Free expansions inserting block block^-1 at pos."""
    return [("fe", pos + i, a) for i, a in enumerate(block)]


def block_reduction_moves(pos: int, length: int) -> list:
    """Free reductions of W W^-1 sitting at [pos, pos+2*length), innermost
    first."""
    return [("fr", pos + k) for k in range(length - 1, -1, -1)]


class SequenceBuilder:
    """Mutable word + emitted move segments.  Every move goes through the
    kernel as it is emitted (``extend``), is a block transport checked
    once per distinct letter it passes (``transport``), or is part of a
    batch the kernel checked on the very subword it lands on (``splice``),
    so a finished builder yields a valid sequence; the builder keeps the
    area and FL the kernel returns, so its ``metrics`` equal those of a
    replay.  Its (part, offset) segments are what it checked, where it
    checked it: ``extend`` adds each batch it accepts at its offset,
    ``transport`` the swaps it checked as one ``Transport`` entry, and
    ``splice`` the record at its offset.  Other compound emissions are
    move lists built by the functions above."""

    __slots__ = ("pres", "initial", "word", "segments", "area", "fl")

    def __init__(self, pres: RelatorPool, initial: Word):
        self.pres = pres
        self.initial = tuple(initial)
        self.word = list(initial)
        self.segments: list = []
        self.area = 0
        self.fl = len(self.initial)

    def extend(self, moves, offset: int = 0) -> None:
        """Apply ``moves``, each position shifted by ``offset``, and record
        a list of them as the segment (moves, offset), unshifted.  A batch
        the kernel refuses is not recorded, while the word keeps the moves
        before the refused one, so a refused builder is spent."""
        area, fl = apply_moves(self.word, moves, self.pres, offset)
        self.area += area
        if fl > self.fl:
            self.fl = fl
        self.segments.append((list(moves), offset))

    def transport(self, chain: tuple, start: int, target: int, sign: int,
                  right: bool) -> None:
        """Move the block W^sign at ``start`` (W the nested commutator of
        ``chain``) to ``target``, rightwards when ``right``, by one swap
        per letter t it passes: a split application of the relator
        [sign t, chain] (``relator_id``).  Every id the move lacks is asked
        for before any move, so a missing relator raises
        ``NoTransportRelator`` first.  A ``target`` on the other side of
        ``start``, a negative ``start`` or ``target``, or a block that
        would run past the word's end at ``start`` or at ``target`` raises
        NotApplicable before any relator lookup and leaves the builder as
        it was; ``target == start`` moves nothing.

        A swap does not change the word's length, and the letters passed
        stay where they are until the block meets them, so each distinct
        letter t is checked once: the template of its key, cached or built
        by ``_template`` with all of its checks, has the side's (block,
        table) pair that every letter of the transport shares, and that
        table maps the key to t.  With the block's letters found at
        ``start`` and the run inside the word, this proves each swap that
        ``apply_moves`` proves: the word is written with one slice, and the
        swaps are recorded as one ``Transport`` entry of the positions, ids
        and fields checked.  A single-letter block meeting its own inverse
        (which passes it by a free reduction and a free expansion), and a
        move whose checks fail, go to ``extend`` instead as one move per
        letter passed, so a refusal has the reason, index and word of that
        batch."""
        pool, word = self.pres, self.word
        # the length of the nested commutator of ``chain``
        L = 3 * 2 ** (len(chain) - 1) - 2
        lo, hi = (start, target) if right else (target, start)
        direction = "rightward" if right else "leftward"
        if lo > hi:
            raise NotApplicable(f"{direction} transport from {start} cannot end at {target}")
        if lo < 0:
            raise NotApplicable(f"{direction} transport from {start} to {target} runs "
                                f"past the start of the word")
        if hi + L > len(word):
            raise NotApplicable(f"{direction} transport from {start} to {target} runs "
                                f"past the end of a word of {len(word)} letters")
        ids = pool._transport_ids.setdefault(chain, {})
        if lo == hi:
            return
        if right:
            letters = word[start + L:target + L]
            first, step, order = start, 1, letters
        else:
            letters = word[target:start]
            first, step, order = start - 1, -1, letters[::-1]
        # a single-letter block meeting its own inverse swaps freely
        stop = -word[start] if L == 1 else None
        # the set is filled in the order the block meets its letters, and a
        # chain context numbers the relators it adds in the set's order
        passed = set(order)
        for t in passed:
            if t != stop and sign * t not in ids:
                pool.relator_id((sign * t,) + chain)
        shift, inv, split = L + 1 if sign > 0 else 0, int(right), L + 1
        block = None
        if stop not in passed:
            templates, side, pair = pool._move_templates, 4 if right else 3, None
            for t in passed:
                key = (ids[sign * t], shift, inv, split)
                template = templates.get(key)
                if template is None:
                    try:
                        template = _template(pool, key, 0)
                    except NotApplicable:
                        break
                if pair is None:
                    pair = template[side]
                if pair is None or template[side] is not pair or pair[1].get(key) != t:
                    break
            else:
                block = pair[0]
        if block is not None and word[start:start + L] == block:
            self.area += hi - lo
            rids = tuple(map(ids.__getitem__, order if sign > 0 else map(neg, order)))
            self.segments.append((Transport(first, step, rids, shift, inv, split), 0))
            if right:
                word[start:target + L] = letters + block
            else:
                word[target:start + L] = block + letters
            return
        moves = []
        for p, t in zip(count(first, step), order):
            if t == stop:
                moves += (("fr", p), ("fe", p, stop if right else -stop))
            else:
                moves.append(("ar", p, ids[sign * t], shift, inv, split))
        self.extend(moves)

    def splice(self, record: CheckedMoves, offset: int = 0) -> None:
        """Apply the moves of ``record`` at ``offset`` by their effect, and
        record the segment (record, offset).

        A batch the kernel checked on ``before`` alone reads only letters of
        ``before``, so wherever ``before`` sits every move passes the same
        checks and the batch leaves ``after``: the word takes ``after`` in
        one splice.  Anywhere else, or past ``MAX_WORD_LENGTH``, the moves go
        through ``extend`` as one flat batch, which it refuses as it would
        any batch."""
        word, before = self.word, record.before
        end = offset + len(before)
        fl = len(word) + record.grow
        if offset < 0 or word[offset:end] != before or fl > MAX_WORD_LENGTH:
            self.extend(list(iter_moves([(record, 0)])), offset)
            return
        word[offset:end] = record.after
        self.area += record.area
        if fl > self.fl:
            self.fl = fl
        self.segments.append((record, offset))

    @property
    def metrics(self) -> Metrics:
        return Metrics(self.area, self.fl, _height(self.segments), len(self.word))

    def finish(self) -> PSequence:
        return PSequence(self.pres, self.initial, metrics=self.metrics,
                         segments=self.segments)
