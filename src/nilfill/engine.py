"""P-sequence moves, replay, metrics and combinators.

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
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .errors import EndpointMismatch, NotApplicable, NotNull
from .presentations import Presentation
from .words import Word, inverse_word


@dataclass(frozen=True)
class Metrics:
    area: int
    fl: int
    height: int
    final_length: int


@dataclass
class PSequence:
    presentation: Presentation
    initial: Word
    moves: list

    def __len__(self):
        return len(self.moves)


def _move_template(pres: Presentation, rid: int, shift: int, inv: int, split: int):
    """(u, v) lists for a relator application, cached on the presentation."""
    cache = pres._move_templates
    key = (rid, shift, inv, split)
    hit = cache.get(key)
    if hit is None:
        r = pres.relators[rid]
        n = len(r)
        if not 0 <= shift < n:
            raise NotApplicable(f"shift {shift} out of range for relator {rid}")
        if not 0 <= split <= n:
            raise NotApplicable(f"split {split} out of range for relator {rid}")
        rv = inverse_word(r) if inv else r
        rot = rv[shift:] + rv[:shift]
        hit = (list(rot[:split]), list(inverse_word(rot[split:])))
        cache[key] = hit
    return hit


def apply_move_inplace(word: list, move, pres: Presentation) -> None:
    op = move[0]
    if op == "fr":
        p = move[1]
        if p < 0 or p + 1 >= len(word):
            raise NotApplicable(f"free reduction at {p} out of range")
        if word[p] != -word[p + 1]:
            raise NotApplicable(f"letters at {p},{p + 1} are not an inverse pair")
        del word[p : p + 2]
    elif op == "fe":
        p, a = move[1], move[2]
        if not 0 <= p <= len(word):
            raise NotApplicable(f"free expansion at {p} out of range")
        if not 1 <= abs(a) <= pres.rank:
            raise NotApplicable(f"free expansion letter {a} names no generator")
        word[p:p] = (a, -a)
    elif op == "ar":
        p, rid, shift, inv, split = move[1], move[2], move[3], move[4], move[5]
        if not 0 <= rid < len(pres.relators):
            raise NotApplicable(f"relator id {rid} out of range")
        u, v = _move_template(pres, rid, shift, inv, split)
        if p < 0 or p + split > len(word):
            raise NotApplicable(f"relator application at {p} out of range")
        if word[p : p + split] != u:
            raise NotApplicable(f"word does not carry relator prefix at {p}")
        word[p : p + split] = v
    else:
        raise NotApplicable(f"unknown move kind {op!r}")


def apply_move(w: Word, move, pres: Presentation) -> Word:
    """Pure single-move application (used by tests and small callers)."""
    word = list(w)
    apply_move_inplace(word, move, pres)
    return tuple(word)


def replay(seq: PSequence):
    """Apply all moves; return (Metrics, final word).  Deterministic."""
    pres = seq.presentation
    word = list(seq.initial)
    area = 0
    fl = len(word)
    for i, move in enumerate(seq.moves):
        try:
            apply_move_inplace(word, move, pres)
        except NotApplicable as exc:
            raise NotApplicable(exc.reason, move_index=i) from None
        if move[0] == "ar":
            area += 1
        n = len(word)
        if n > fl:
            fl = n
    final = tuple(word)
    return Metrics(area, fl, len(seq.moves), len(final)), final


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
    endpoints are untouched.
    """
    pres = seq.presentation
    out = []
    word = list(seq.initial)
    for move in seq.moves:
        if move[0] == "ar" and move[5] > 0:
            _, p, rid, shift, inv, split = move
            n = len(pres.relators[rid])
            out.append(("ar", p + split, rid, (shift + split) % n, inv, 0))
            out.extend(("fr", q) for q in range(p + split - 1, p - 1, -1))
        else:
            out.append(move)
        apply_move_inplace(word, move, pres)
    return PSequence(pres, seq.initial, out)


def invert_sequence(seq: PSequence) -> PSequence:
    """The sequence obtained by inverting every word of ``seq``.

    Replays from inverse(initial) to inverse(final) with identical area,
    filling length and height; positions are mirrored.
    """
    pres = seq.presentation
    word = list(seq.initial)
    out = []
    for move in seq.moves:
        n = len(word)
        op = move[0]
        if op == "fr":
            out.append(("fr", n - move[1] - 2))
        elif op == "fe":
            out.append(("fe", n - move[1], move[2]))
        else:
            _, p, rid, shift, inv, split = move
            lr = len(pres.relators[rid])
            out.append(
                ("ar", n - p - split, rid, (lr - shift - split) % lr, 1 - inv, split)
            )
        apply_move_inplace(word, move, pres)
    return PSequence(pres, inverse_word(seq.initial), out)


def concatenate(s1: PSequence, s2: PSequence) -> PSequence:
    """Join two sequences; the final word of s1 must equal s2's initial."""
    if s1.presentation is not s2.presentation:
        raise EndpointMismatch("sequences over different presentations")
    _, final = replay(s1)
    if final != tuple(s2.initial):
        raise EndpointMismatch(
            f"endpoint of length {len(final)} != start of length {len(s2.initial)}"
        )
    return PSequence(s1.presentation, s1.initial, list(s1.moves) + list(s2.moves))


def find_rotation(pres: Presentation, rid: int, target: Word):
    """(shift, inv) with rot(relator^inv, shift) == target, or None."""
    r = pres.relators[rid]
    n = len(r)
    if len(target) != n:
        return None
    for inv, base in ((0, r), (1, inverse_word(r))):
        doubled = base + base
        for shift in range(n):
            if doubled[shift : shift + n] == target:
                return shift, inv
    return None


# Packed move lists: a flat array("i") holding one fixed record of six ints
# per move, (kind, pos, letter or rid, shift, inv, split), unused fields 0.
_FR, _FE, _AR = 0, 1, 2


def pack_moves(moves) -> array:
    """Move tuples as a packed move list, 24 bytes a move."""
    out = array("i")
    for move in moves:
        op = move[0]
        if op == "fr":
            out.extend((_FR, move[1], 0, 0, 0, 0))
        elif op == "fe":
            out.extend((_FE, move[1], move[2], 0, 0, 0))
        else:
            out.append(_AR)
            out.extend(move[1:])
    return out


class SequenceBuilder:
    """Mutable word + emitted move list; every emission is applied and
    checked immediately, so a finished builder yields a valid sequence."""

    __slots__ = ("pres", "initial", "word", "moves", "area")

    def __init__(self, pres: Presentation, initial: Word):
        self.pres = pres
        self.initial = tuple(initial)
        self.word = list(initial)
        self.moves: list = []
        self.area = 0

    def __len__(self):
        return len(self.word)

    def fr(self, pos: int) -> None:
        w = self.word
        if w[pos] != -w[pos + 1]:
            raise NotApplicable(f"builder: no inverse pair at {pos}")
        del w[pos : pos + 2]
        self.moves.append(("fr", pos))

    def fe(self, pos: int, letter: int) -> None:
        self.word[pos:pos] = (letter, -letter)
        self.moves.append(("fe", pos, letter))

    def ar(self, pos: int, rid: int, shift: int, inv: int, split: int) -> None:
        u, v = _move_template(self.pres, rid, shift, inv, split)
        w = self.word
        if w[pos : pos + split] != u:
            raise NotApplicable(f"builder: relator prefix missing at {pos}")
        w[pos : pos + split] = v
        self.moves.append(("ar", pos, rid, shift, inv, split))
        self.area += 1

    # -- compound emissions --------------------------------------------------

    def insert_inverse_pair(self, pos: int, block: Word) -> None:
        """Free-expand block^-1 block at pos (len(block) expansions)."""
        for i, a in enumerate(reversed(block)):
            self.fe(pos + i, -a)

    def insert_pair_inverse(self, pos: int, block: Word) -> None:
        """Free-expand block block^-1 at pos."""
        for i, a in enumerate(block):
            self.fe(pos + i, a)

    def reduce_adjacent_blocks(self, pos: int, length: int) -> None:
        """Reduce W W^-1 sitting at [pos, pos+2*length) innermost-first."""
        for _ in range(length):
            self.fr(pos + length - 1)
            length -= 1

    def reduce_all(self, start: int = 0) -> None:
        """Greedy left-to-right full free reduction of the current word."""
        i = max(start, 0)
        w = self.word
        while i + 1 < len(w):
            if w[i] == -w[i + 1]:
                self.fr(i)
                if i > 0:
                    i -= 1
            else:
                i += 1

    def replay_embedded(self, moves, offset: int) -> None:
        """Re-emit previously built moves shifted by a position offset."""
        for move in moves:
            op = move[0]
            if op == "fr":
                self.fr(move[1] + offset)
            elif op == "fe":
                self.fe(move[1] + offset, move[2])
            else:
                self.ar(move[1] + offset, move[2], move[3], move[4], move[5])

    def replay_packed(self, packed: array, offset: int) -> None:
        """``replay_embedded`` for a packed move list (see ``pack_moves``).

        The hot path of register absorptions, so the checks of ``fr`` and
        ``ar`` are made inline rather than through the methods."""
        pres = self.pres
        w = self.word
        emit = self.moves.append
        area = 0
        it = iter(packed)
        for kind, p, a, shift, inv, split in zip(it, it, it, it, it, it):
            p += offset
            if kind == _FR:
                if w[p] != -w[p + 1]:
                    raise NotApplicable(f"builder: no inverse pair at {p}")
                del w[p : p + 2]
                emit(("fr", p))
            elif kind == _FE:
                w[p:p] = (a, -a)
                emit(("fe", p, a))
            else:
                u, v = _move_template(pres, a, shift, inv, split)
                if w[p : p + split] != u:
                    raise NotApplicable(f"builder: relator prefix missing at {p}")
                w[p : p + split] = v
                emit(("ar", p, a, shift, inv, split))
                area += 1
        self.area += area

    def finish(self) -> PSequence:
        return PSequence(self.pres, self.initial, self.moves)
