"""Compression words and the sequences that build them.

For a chain of weight-1 letters (a_1, ..., a_c) write z_k for the nested
commutator word [a_k, ..., a_c].  The compression word for an exponent
0 <= s <= n^c has length O(n) and equals z_1^s in the class-c group:

    ztilde^s     = z_1^{s_0} [a_1^n, z_2^{s_1} [a_2^n, ...]]
    ztilde^{n^c} = [a_1^n, a_2^n, ..., a_c^n]

with (s_0, ..., s_{c-1}) the base-n digits of s.  Increment sequences
transform z_1 ztilde^s into ztilde^{s+1}; concatenating all of them
compresses z_1^{n^c} with area O(n^{c+1}) and filling length O(n).  A
register (``CompressedPower``) drives the increments, one absorption of
z_1 at a time, and a power compression is one register absorbing n^c
copies of z_1.  An increment is built on its own subword z_1 ztilde^s,
where every move it builds passes the kernel once, as a checked record
that the chain context makes and keeps (``ChainContext.record``), and
spliced in wherever that subword sits.  Only the carrying increments
(s = n - 1 mod n, c > 1) move letters; the increment at s = 0 also
inserts ztilde^0.

Every relator application emitted here is a transport: a central block
(a nested commutator word or its inverse) swaps with an adjacent letter,
in one move that replaces the block-letter pair.  A block moves this one
way on the chain presentation (level 0) and on the inner levels, whose
relator pool is the chain context itself: its builder's one transport
entry (``SequenceBuilder.transport``, reached through a ``BlockMover``)
asks the pool it writes to for each swap's relator (``relator_id``).  A
carry lifts an inner sequence one chain level down: the two halves of a
commutator run it and its mirror side by side, each move mirrored by
``engine.mirror_move``, the rule of ``invert_sequence``.  The lift writes
each inner swap as the insertion of the inverse of its whole unrotated
relator r and free reductions (``_whole_insertions``), and re-creates
that insertion by expanding r r^-1 and transporting the r block, whose
chain the context recorded with the relator, to where the mirrored
application inserts r.  Any ordering of the chain letters compresses.
"""

from __future__ import annotations

from itertools import tee

from .engine import (
    CheckedMoves,
    PSequence,
    RelatorPool,
    SequenceBuilder,
    Transport,
    block_reduction_moves,
    check_moves,
    invert_sequence,
    iter_moves,
    mirror_move,
    pair_inverse_moves,
    reduction_steps,
)
from .errors import NilfillError, OutOfRange
from .presentations import Presentation
from .words import MAX_WORD_LENGTH, Word, commutator, inverse_word, nested_commutator


class ChainContext(RelatorPool):
    """A commutator chain bound to a presentation holding its transport
    relators, and the relator pool of the chain's inner levels.  Letters
    are weight-1 generator indices and may repeat.

    Level 0 works on the presentation and the inner levels on the context.
    The level-k increment for k >= 1 is a sequence over the subchain
    presentation, whose relators are not relators of the ambient group.
    Those inner sequences are scaffolding: each of their applications is
    re-created in the ambient presentation by free expansions plus
    transports, so the pool only has to name the inserted words.  It adds
    the relator of a swap on the first request (``_name``): relator ``rid``
    is the nested commutator of the chain ``chains[rid]``, which the lift
    reads back to move the leftover block.

    The context builds, mirrors and keeps register increments (``record``):
    ``increments`` maps (n, s, mirrored), with s = q mod n^c, to the
    ``CheckedMoves`` of one absorption that moves letters (s = 0 or
    carrying) or of its mirror.  Each record passes the kernel once,
    when it is made, and later absorptions splice in its effect
    (``SequenceBuilder.splice``), sharing its parts; a register reads its
    length and the mirror's splice offset off the record.  A forward
    record keeps the parts its builder checked, at offset 0: flat batches
    of move tuples, each distinct move stored once in ``_move_pool``, and
    ``Transport`` entries as they are, so no tuple is built or stored for
    a transport's swaps, with each distinct ids tuple stored once in the
    same pool (for (1, 2, 3) at n = 10, 60,650 flat moves are 918
    distinct objects, and 3,200 entries hold 230,550 swaps in 1,850 ids
    tuples).  A mirror record is one flat batch.  The trace writer keeps
    each record's line template on the record.

    Whoever makes a register chooses the context that owns its records.
    Fills share the presentation's context of each chain
    (``chain_context``): its memo lives as long as the presentation and
    pays off over many fills on it, as in ``bench fill``, though within one
    fill almost every entry is used once.  A power compression and a
    compression word each make a context of their own: its records and
    moves go with the sequence that splices them, and the rest when the
    call returns.
    """

    def __init__(self, pres: Presentation, chain):
        self.pres = pres
        self.chain = tuple(chain)
        if not self.chain:
            raise OutOfRange("empty commutator chain")
        for a in self.chain:
            if not 1 <= a <= pres.rank or pres.weight_of(a) != 1:
                raise OutOfRange(f"chain letter {a} is not a weight-1 generator")
        self.c = len(self.chain)
        self.z_words = [nested_commutator(self.chain[k:]) for k in range(self.c)]
        super().__init__([], pres.rank)
        self.chains: list = []
        self.increments: dict = {}
        self._move_pool: dict = {}

    def _name(self, chain) -> int:
        """Add the nested commutator of ``chain`` to the inner pool."""
        self.relators.append(nested_commutator(chain))
        self.chains.append(chain)
        return len(self.relators) - 1

    def intern(self, part):
        """A builder's part, read once, as a record keeps it: a flat batch
        as a tuple whose equal moves are one shared object, a ``Transport``
        entry as it is, its ids tuple shared with every equal one."""
        pool = self._move_pool
        if type(part) is Transport:
            part.ids = pool.setdefault(part.ids, part.ids)
            return part
        return tuple(map(pool.setdefault, *tee(part)))

    def record(self, n: int, s: int, mirrored: bool) -> CheckedMoves:
        """The checked record of the increment at s on z_1 ztilde^s (mirrored:
        on its inverse), at offset 0, made on the first request and kept; at
        s = 0 it starts from z_1 and inserts ztilde^0."""
        rec = self.increments.get((n, s, mirrored))
        if rec is not None:
            return rec
        if mirrored:
            forward = self.record(n, s, False)
            mirror = invert_sequence(PSequence(self.pres, forward.before,
                                               segments=[(forward, forward.parts, 0)]))
            rec = check_moves(self.pres, mirror.initial, self.intern(mirror.moves))
            if rec.after != list(inverse_word(forward.after)):
                raise AssertionError(f"mirrored increment endpoint mismatch, s={s}")
        else:
            zw = self.z_words[0]
            initial = zw + (_cword(self, 0, n, s) if s else ())
            b = SequenceBuilder(self.pres, initial)
            if s == 0:
                b.extend([("fe", len(zw) + p, a)
                          for p, a in reversed(reduction_steps(_cword(self, 0, n, 0)))])
            _run_increment(self, b, 0, n, s)
            parts = tuple(self.intern(moves) for _, moves, _ in b.segments if moves)
            rec = CheckedMoves(parts, list(initial), b.word, b.area, b.fl - len(initial))
        self.increments[n, s, mirrored] = rec
        return rec


def chain_context(pres: Presentation, chain) -> ChainContext:
    """The presentation's shared context of ``chain``, which fills use."""
    cache = pres._chain_ctxs
    key = tuple(chain)
    ctx = cache.get(key)
    if ctx is None:
        ctx = ChainContext(pres, key)
        cache[key] = ctx
    return ctx


class BlockMover:
    """Transport of the central block W^s (W the nested commutator of
    ``block_chain``, s = +-1) past single letters, one swap per letter,
    made where a block moves.  The whole move, from the relator ids it
    reads off the pool to the per-letter batch it falls back on, is
    ``SequenceBuilder.transport``; the mover only names the block's chain
    and the direction.  Its two methods remain as the entry points that
    perfbench's ``compression.transport`` span wraps by name."""

    __slots__ = ("chain",)

    def __init__(self, block_chain):
        self.chain = tuple(block_chain)

    def move_left(self, b, start: int, target: int, sign: int) -> None:
        """Move the block at ``start`` left to ``target``, swapping it with
        the letter t at each p it passes."""
        b.transport(self.chain, start, target, sign, False)

    def move_right(self, b, start: int, target: int, sign: int) -> None:
        """Move the block at ``start`` right to ``target``, swapping it with
        the letter t at each p + L it passes."""
        b.transport(self.chain, start, target, sign, True)


def compression_word(pres: Presentation, chain, n: int, s: int) -> Word:
    """The compression word for z_1^s; s = n^c gives [a_1^n, ..., a_c^n]."""
    return _cword(ChainContext(pres, chain), 0, n, s)


def _cword(ctx: ChainContext, level: int, n: int, s: int) -> Word:
    if n < 2:
        raise OutOfRange(f"base must be at least 2, got {n}")
    chain = ctx.chain[level:]
    c = len(chain)
    if not 0 <= s <= n**c:
        raise OutOfRange(f"need 0 <= s <= n^{c}, got {s}")
    if c == 1:
        return (chain[0],) * s
    a = chain[0]
    if s == n**c:
        return commutator((a,) * n, _cword(ctx, level + 1, n, n ** (c - 1)))
    s0 = s % n
    tail = commutator((a,) * n, _cword(ctx, level + 1, n, s // n))
    return ctx.z_words[level] * s0 + tail


def _run_increment(ctx: ChainContext, b: SequenceBuilder, level: int, n: int,
                   s: int) -> None:
    """Turn ``b``'s word z_level ztilde^s into ztilde^{s+1}, every move
    going through ``b``'s kernel."""
    chain = ctx.chain[level:]
    c = len(chain)
    if not 0 <= s <= n**c - 1:
        raise OutOfRange(f"need 0 <= s <= n^{c} - 1, got {s}")
    if c > 1 and s % n + 1 == n:
        _carry(ctx, b, level, n, s)
    if b.word != list(_cword(ctx, level, n, s + 1)):
        raise AssertionError(
            f"increment endpoint mismatch at level {level}, s={s}"
        )


def _carry(ctx: ChainContext, b: SequenceBuilder, level, n, s) -> None:
    """The carry of the increment at s, on ``b``'s word z_level ztilde^s.

    With t = s // n, the word is z_level^n [a^n, ztilde^t] and must become
    [a^n, ztilde^{t+1}], both ztilde one level down.  First z_{level+1} is
    carried through a^n: each swap with an a leaves a z_level^-1 block,
    which moves left to cancel one of the n copies of z_level.  The word is
    then [a^n, z_{level+1} ztilde^t], and the level+1 increment at t runs
    in both halves of the commutator at once, forward on the right and
    mirrored on the inverse on the left.  That increment is built on the
    context's own relator pool, whose relators are not relators here.  The
    lift writes each of its swaps as the insertion of a whole relator r^-1
    (``_whole_insertions``), which this level re-creates by expanding
    r r^-1 and moving the r block to where the mirrored application
    inserts r.  Every block moves on the pool ``b`` writes to (``b.pres``):
    the presentation at level 0, the context on the inner levels."""
    chain = ctx.chain[level:]
    a = chain[0]
    zw = ctx.z_words[level]
    z2w = ctx.z_words[level + 1]
    lz, lz2 = len(zw), len(z2w)
    t = s // n
    tword = _cword(ctx, level + 1, n, t)
    lt = len(tword)
    zmover = BlockMover(chain)

    # Moves are buffered in ``pending`` and flushed before each transport,
    # which reads the word.
    # word: zw^n a^-n tword^-1 a^n tword.  Insert z2^-1 z2 before a^n.
    pending = pair_inverse_moves(n * lz + n + lt, inverse_word(z2w))

    for i in range(n):
        # z2 block before its i-th swap with the letter a
        p = (n - i) * lz + n + lt + lz2 + i
        pending.append(("fe", p, a))
        pending += pair_inverse_moves(p + 1, z2w)
        b.extend(pending)
        # new z_level^-1 block starts right of the fresh z2 copy
        start = p + 1 + lz2
        boundary = (n - i) * lz
        zmover.move_left(b, start, boundary, -1)
        pending = block_reduction_moves(boundary - lz, lz)

    # word: a^-n tword^-1 z2^-1 a^n z2 tword; run the level-2 increment
    # and its inverse concurrently on the two halves: each inner move goes
    # to the right half, which starts at n + lcur + n (lcur the length of
    # the inner word before the move), and its mirror (``mirror_move``) to
    # the left half, which starts at n.
    inner = SequenceBuilder(ctx, z2w + tword)
    _run_increment(ctx, inner, level + 1, n, t)
    relators, chains = ctx.relators, ctx.chains
    lcur = lz2 + lt
    for mv in _whole_insertions(iter_moves(inner.segments), relators):
        here = n + lcur + n + mv[1]
        mirrored, lcur = mirror_move(mv, lcur, relators)
        there = n + mirrored[1]
        if mv[0] == "ar":
            # an inner application inserts a whole relator r^-1: expand
            # r r^-1 instead and move the r block to where the mirrored
            # application inserts r
            pending += pair_inverse_moves(here, relators[mv[2]])
            b.extend(pending)
            pending = []
            BlockMover(chains[mv[2]]).move_left(b, here, there, 1)
        else:
            pending += ((mv[0], here) + mv[2:], (mirrored[0], there) + mirrored[2:])
    b.extend(pending)


def _whole_insertions(moves, relators):
    """``moves`` with each relator application, a split swap of a block W^s
    past a letter, rewritten as the insertion of the inverse of its whole
    unrotated relator r (length m) followed by its k free reductions:
    a W^-1 block (shift 0) inserts at p and reduces the last k letters of
    r^-1, a W block (shift + k = m) inserts at p + k and reduces the k
    letters before it.  The lift re-creates only such insertions."""
    for mv in moves:
        if mv[0] != "ar":
            yield mv
            continue
        _, p, rid, shift, inv, k = mv
        m = len(relators[rid])
        if inv or (shift and (shift + k) % m):
            raise AssertionError("liftable sequences must insert whole relators")
        yield ("ar", p + k if shift else p, rid, 0, 0, 0)
        yield from block_reduction_moves(p if shift else p + m - k, k)


def power_compression_sequence(pres: Presentation, chain, n: int) -> PSequence:
    """From z_1^{n^c} to [a_1^n, ..., a_c^n]: one register absorbs all n^c
    copies of z_1, each at the last z_1 of the word, (total - s - 1)
    len(z_1).  The register works on a chain context of its own: the
    records it splices, with their parts (interned moves and transport
    entries), go when the sequence goes, the rest of the context when this
    call returns.  Area is bounded by a
    constant times n^{c+1} and filling length by a constant times n; both
    are measured, not asserted, here.  A starting word past
    ``MAX_WORD_LENGTH`` is refused before it is built, with the kernel's
    reason.
    """
    ctx = ChainContext(pres, chain)
    reg = CompressedPower(ctx, n)
    zw = ctx.z_words[0]
    total = n**ctx.c
    if len(zw) * total > MAX_WORD_LENGTH:
        raise NilfillError(f"word longer than {MAX_WORD_LENGTH} letters")
    b = SequenceBuilder(pres, zw * total)
    for s in range(total):
        reg.absorb(b, (total - s - 1) * len(zw))
    if b.word != list(_cword(ctx, 0, n, total)):
        raise AssertionError("power compression endpoint mismatch")
    return b.finish()


class CompressedPower:
    """A register holding ztilde^q for a growing exponent q.

    ``absorb`` turns z_1 ztilde^q (the z_1 word sitting at ``offset`` in
    the builder, the register word right after it) into ztilde^{q+1}; a
    register made ``mirrored`` works on the inverse word, with the z_1^-1
    word at ``offset`` arriving on the right.  For c > 1 only s = q mod
    n^c = 0, which opens a block, and the carrying s move letters:
    ``absorb`` splices in their checked effect (``local_moves``), a record
    that the chain context ``ctx`` its maker hands it keeps, and at any other
    s the z_1 word just joins the register.  ``absorb`` is the one driver
    of increments: a fill's registers and a power compression both run
    through it.  ``length`` is len(ztilde^q), and like the mirror's splice
    offset it is read off the record: an absorption turns z_1 and the
    register's head (``before``) into the new head (``after``) and leaves
    the blocks beyond it alone.
    """

    def __init__(self, ctx: ChainContext, n: int, mirrored: bool = False):
        if n < 2:
            raise OutOfRange(f"base must be at least 2, got {n}")
        self.ctx = ctx
        self.n = n
        self.mirrored = mirrored
        self.q = 0
        self.length = 0

    def local_moves(self) -> CheckedMoves:
        """The context's record of the absorption at the current q."""
        return self.ctx.record(self.n, self.q % self.n**self.ctx.c, self.mirrored)

    def absorb(self, b: SequenceBuilder, offset: int) -> None:
        lz, n, c = len(self.ctx.z_words[0]), self.n, self.ctx.c
        s = self.q % n**c
        if c > 1 and (s == 0 or s % n == n - 1):
            record = self.local_moves()
            if self.mirrored:
                offset += lz - len(record.before)
            b.splice(record, offset)
            self.length += len(record.after) - len(record.before)
        self.q += 1
        self.length += lz
