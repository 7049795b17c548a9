"""The recursive filling algorithm.

To fill a trivial word w in a filler presentation of class c: project away
the weight-c letters, fill the projection recursively in the materialized
quotient presentation, then replay that sequence upstairs.  Free moves
replay verbatim, in one batch with the next relator application, which is
expanded to the lifted relator.  Its released weight-c letters are swept
outward - positive basis letters to compression registers on the right,
their inverses to mirrored registers on the left, dependent letters
rewritten through the basis on the spot.  One absorption emits the
letter's expansion into its defining chain word, which the register then
takes in.  When the projected word is gone the two register banks mirror
each other exactly and cancel freely.  A fill keeps only its own state;
the tables it reuses live on the presentation and the chain contexts.

The class-1 base case sorts letters generator by generator and cancels
each block: an (n^2, n) filling.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .compression import BlockMover, CompressedPower, chain_context
from .engine import SequenceBuilder, normalize_insertions, reduction_steps
from .errors import NotNullHomotopic
from .presentations import Presentation
from .words import Word, inverse_word


@dataclass
class FillReport:
    """Runtime accounting of one fill: register growth versus its bound."""

    nclass: int
    length: int
    inner_area: int = 0
    initial_top: int = 0
    max_register: int = 0
    relator_bound_factor: int = 0
    register_base: int = 2
    inner: "FillReport | None" = None

    @property
    def register_bound(self) -> int:
        return 2 * self.relator_bound_factor * self.inner_area + 2 * self.initial_top


def fill_with_report(w: Word, pres: Presentation):
    """A valid null-sequence for the trivial word w (oracle-vetoed first),
    with the per-level register accounting used by the bounds."""
    if not pres.is_identity(w):
        raise NotNullHomotopic(f"word of length {len(w)} is not trivial")
    return _fill_checked(w, pres)


def _fill_checked(w: Word, pres: Presentation):
    if pres.nclass == 1:
        return _abelian_fill(w, pres)
    run = _FillRun(pres, w)
    return run.execute()


def _abelian_fill(w: Word, pres: Presentation):
    """Collect each generator's letters at the front and cancel the block."""
    b = SequenceBuilder(pres, w)
    report = FillReport(nclass=1, length=len(w))
    for g in range(1, pres.rank + 1):
        target = 0
        p = 0
        while p < len(b.word):
            a = b.word[p]
            if abs(a) == g:
                if p > target:
                    BlockMover((g,)).move_left(b, p, target, 1 if a > 0 else -1)
                target += 1
            p += 1
        _reduce_all(b)
    if b.word:
        raise AssertionError("abelian fill left a nonempty word")
    return b.finish(), report


def _reduce_all(b: SequenceBuilder) -> None:
    """Greedy left-to-right full free reduction of the builder's word."""
    b.extend([("fr", p) for p, _ in reduction_steps(b.word)])


def _iroot(value: int, k: int) -> int:
    """Integer ceiling of value**(1/k)."""
    if value <= 1:
        return value
    r = round(value ** (1.0 / k))
    while r**k < value:
        r += 1
    while (r - 1) ** k >= value:
        r -= 1
    return r


class _FillRun:
    """One fill's state: its builder, its two register banks and the
    length of the region between them.  The layout is read off the
    registers: the region starts after the left bank's letters, and a
    register sits past the registers of its bank that are nearer the
    region.  The moves it emits are built where they land."""

    def __init__(self, pres: Presentation, w: Word):
        self.pres = pres
        self.w = tuple(w)
        self.c = pres.nclass
        chosen, self.rewrite, _ = pres.basis
        self.basis = list(chosen)
        self.quot = pres.quotient

    def execute(self):
        pres, w, c = self.pres, self.w, self.c
        inner_seq, inner_report = _fill_checked(pres.project_word(w), self.quot)
        inner_norm = normalize_insertions(inner_seq)

        # Registers only ever increment, so the exact final exponent of each
        # register is the number of basis letters of that sign released by
        # the initial word plus all lifted relators.  Sizing the compression
        # base to that count keeps the register words short, and the busiest
        # register sits next to the working region.
        counts = self._count_releases(w, inner_norm)
        for z in self.basis:
            if counts[z] != counts[-z]:
                raise AssertionError(
                    f"unbalanced releases for basis letter {z}: "
                    f"{counts[z]} vs {counts[-z]}"
                )
        self.basis.sort(key=lambda z: (-counts[z] - counts[-z], z))
        self.slot_of = {z: j for j, z in enumerate(self.basis)}
        peak = max(counts.values(), default=0)
        n_base = max(2, _iroot(peak, c))

        self.report = FillReport(
            nclass=c,
            length=len(w),
            inner_area=inner_seq.metrics.area,  # normalization keeps the area
            initial_top=sum(1 for a in w if pres.weight_of(a) == c),
            max_register=peak,      # the checks below prove it is reached
            relator_bound_factor=pres.max_weight_c_per_relator,
            register_base=n_base,
            inner=inner_report,
        )
        b = self.b = SequenceBuilder(pres, w)
        ctxs = [chain_context(pres, pres.defining_chain(z)) for z in self.basis]
        self.right = [CompressedPower(ctx, n_base) for ctx in ctxs]
        self.left = [CompressedPower(ctx, n_base, mirrored=True) for ctx in ctxs]
        # geometry: the left bank, the region (``region_len`` letters) and
        # the right bank; register j of a bank sits after (right) or before
        # (left) the bank's registers 0..j-1, so offsets are read off them
        self.region_len = len(w)

        self.collect(0, len(w))

        lift_table = self.quot.lift_table
        moves = []      # free moves since the last relator application
        for mv in inner_norm.moves:
            if mv[0] != "ar":
                moves.append(mv)
                continue
            _, pos, rid, shift, inv, split = mv
            if split:
                raise AssertionError("inner sequence must be normalized")
            src_rid, surviving = lift_table[rid]
            span = len(pres.relators[src_rid])
            # inverted, the kept positions are span - 1 - s in reverse order
            # of surviving, which is strictly increasing
            shift = span - 1 - surviving[-1 - shift] if inv else surviving[shift]
            moves.append(("ar", pos, src_rid, shift, inv, 0))
            self._lift(moves)
            moves = []
            self.collect(pos, pos + span)
        self._lift(moves)
        if self.region_len:
            raise AssertionError("projected word did not empty")
        for j, (lreg, rreg) in enumerate(zip(self.left, self.right)):
            if lreg.q != rreg.q:
                raise AssertionError(
                    f"register asymmetry at basis slot {j}: {lreg.q} != {rreg.q}"
                )
            if rreg.q != counts[self.basis[j]]:
                raise AssertionError("register count disagrees with precount")
        _reduce_all(b)
        if b.word:
            raise AssertionError("final mirror reduction left a nonempty word")
        if self.report.max_register > self.report.register_bound:
            raise AssertionError(
                f"register bound violated: {self.report.max_register} > "
                f"{self.report.register_bound}"
            )
        return b.finish(), self.report

    def _lift(self, moves) -> None:
        """Replay moves of the projected word, free moves verbatim and the
        last one a lifted relator, as one batch at the region start."""
        b = self.b
        before = len(b.word)
        b.extend(moves, self.lo)
        self.region_len += len(b.word) - before

    def _count_releases(self, w, inner_norm) -> Counter:
        """Released basis letters of w and of every lifted relator, keyed by
        signed letter: ``counts[z]`` absorptions by the right register of z,
        ``counts[-z]`` by the left one."""
        pres, c, rewrite = self.pres, self.c, self.rewrite
        weight_of = pres.weight_of
        lift_table = self.quot.lift_table
        # a whole-word application inserts the inverse of the rotated
        # relator, so inv=0 releases the inverse letters
        lifted = ((pres.relators[lift_table[mv[2]][0]], mv[4])
                  for mv in inner_norm.moves if mv[0] == "ar")
        counts = Counter()
        for word in chain((w,), (r if inv else inverse_word(r) for r, inv in lifted)):
            for a in word:
                i = abs(a)
                if weight_of(i) != c:
                    continue
                v = rewrite.get(i)
                if v is None:
                    counts[a] += 1
                else:
                    counts.update(v if a > 0 else inverse_word(v))
        return counts

    # -- collection ------------------------------------------------------------

    @property
    def lo(self) -> int:
        """The region start: the length of the left bank."""
        return sum(r.length for r in self.left)

    @property
    def hi(self) -> int:
        return self.lo + self.region_len

    def collect(self, start: int, end: int) -> None:
        """Sweep weight-c letters out of the region's [start, end), offsets
        from the region start: rewrite dependent letters in place, then send
        basis letters rightmost-first to the right registers and their
        inverses leftmost-first to the left ones.  Only a send left moves
        the region start, since its register grows in front of it."""
        word = self.b.word
        rewrite, slots = self.rewrite, self.slot_of
        lo = self.lo
        k = start
        while k < end:
            a = word[lo + k]
            if abs(a) in rewrite:
                delta = self._apply_rewrite(lo + k, a)
                end += delta
                self.region_len += delta
            else:
                k += 1
        # a send right leaves the letters left of it in place
        for k in range(end - 1, start - 1, -1):
            if word[lo + k] in slots:
                self._send_right(lo + k)
                end -= 1
        # a send left leaves the letters after it at the same offset from
        # the region start, the next one at the offset of the letter sent
        k = start
        while k < end:
            if -word[lo + k] in slots:
                self._send_left(lo + k)
                lo = self.lo
                end -= 1
            else:
                k += 1
        # shape invariant: registers, a weight-c-free region, registers
        if len(word) != self.hi + sum(r.length for r in self.right):
            raise AssertionError("collected word lost its register shape")

    def _apply_rewrite(self, p: int, a: int) -> int:
        """Replace a dependent weight-c letter by its basis word; returns the
        length change."""
        i = abs(a)
        v = self.rewrite[i]
        rid = self.pres.relator_index[(i,) + inverse_word(v)]
        self.b.extend([("ar", p, rid, 0, 0, 1) if a > 0
                       else ("ar", p, rid, len(v), 1, 1)])
        return len(v) - 1

    def _send_right(self, p: int) -> None:
        z = self.b.word[p]
        j = self.slot_of[z]
        target = self.hi - 1 + sum(r.length for r in self.right[:j])
        BlockMover((z,)).move_right(self.b, p, target, +1)
        self.region_len -= 1
        self._absorb(self.right[j], target)

    def _send_left(self, p: int) -> None:
        z = -self.b.word[p]
        j = self.slot_of[z]
        target = self.lo - sum(r.length for r in self.left[:j])
        BlockMover((z,)).move_left(self.b, p, target, -1)
        self.region_len -= 1
        self._absorb(self.left[j], target)

    def _absorb(self, register: CompressedPower, p: int) -> None:
        """Absorb the weight-c letter at p into ``register``: expand it into
        its defining chain word, one definition relator per unfolding, then
        let the register take that word in."""
        moves = []
        _expansion_moves(self.pres, self.b.word[p], p, moves)
        self.b.extend(moves)
        register.absorb(self.b, p)


def _expansion_moves(pres: Presentation, a: int, p: int, out: list) -> None:
    """Append the moves expanding the compound letter a sitting at p into
    its defining chain word; only compound parents expand further."""
    parents = pres.parents
    x, y = parents[abs(a) - 1]
    rid = pres.relator_index[(-abs(a), -x, -y, x, y)]
    compound = parents[abs(y) - 1] is not None
    if a > 0:
        out.append(("ar", p, rid, 4, 1, 1))
        # word at p: x^-1 y^-1 x y; expand the two y occurrences
        if compound:
            _expansion_moves(pres, y, p + 3, out)
            _expansion_moves(pres, -y, p + 1, out)
    else:
        out.append(("ar", p, rid, 0, 0, 1))
        # word at p: y^-1 x^-1 y x
        if compound:
            _expansion_moves(pres, y, p + 2, out)
            _expansion_moves(pres, -y, p, out)


# --- certification -----------------------------------------------------------


@dataclass
class AflCertificate:
    """Smallest single constant bounding Area by lam * len^(c+1) and FL by
    lam * len over a corpus of fill results."""

    nclass: int
    count: int
    lam: float
    lam_area: float
    lam_fl: float
    worst_area: tuple = ()
    worst_fl: tuple = ()


def certify_afl_pair(results, nclass: int) -> AflCertificate:
    """results: iterable of (length, Metrics) pairs from fill runs."""
    lam_area = 0.0
    lam_fl = 0.0
    worst_area = ()
    worst_fl = ()
    count = 0
    for length, metrics in results:
        count += 1
        if length == 0:
            continue
        ra = metrics.area / length ** (nclass + 1)
        rf = metrics.fl / length
        if ra > lam_area:
            lam_area, worst_area = ra, (length, metrics.area)
        if rf > lam_fl:
            lam_fl, worst_fl = rf, (length, metrics.fl)
    return AflCertificate(
        nclass, count, max(lam_area, lam_fl), lam_area, lam_fl, worst_area, worst_fl
    )
