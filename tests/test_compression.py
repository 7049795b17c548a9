import functools
import gc
import itertools
import random
import tracemalloc
import weakref
from collections import Counter

import pytest
from helpers import (fill, increment_sequence, insert_trivial_word, one_move_per_call,
                     record_moves)

from nilfill import compression, engine, oracle, traces
from nilfill.compression import (
    BlockMover,
    ChainContext,
    CompressedPower,
    compression_word,
    chain_context,
    power_compression_sequence,
)
from nilfill.corpus import corpus_generate
from nilfill.engine import (CheckedMoves, PSequence, SequenceBuilder, apply_moves,
                            invert_sequence, replay, validate_null)
from nilfill.errors import NoTransportRelator, NotApplicable, OutOfRange
from nilfill.presentations import (
    Presentation,
    build_chain_presentation,
    build_filler_presentation,
)
from nilfill.traces import serialize_trace
from nilfill.words import free_reduce, inverse_word, nested_commutator


def chain_setup(c):
    pres = build_chain_presentation(c, 1)
    return pres, tuple(range(1, c + 1))


def oracle_equal(pres, u, v):
    return pres.is_identity(u + inverse_word(v))


# --- compression words ------------------------------------------------------


def test_compression_word_range_errors():
    pres, chain = chain_setup(3)
    with pytest.raises(OutOfRange):
        compression_word(pres, chain, 2, 2**3 + 1)
    with pytest.raises(OutOfRange):
        compression_word(pres, chain, 2, -1)
    with pytest.raises(OutOfRange):
        compression_word(pres, chain, 1, 0)
    # a chain letter past the rank names no generator
    with pytest.raises(OutOfRange, match="chain letter 5"):
        compression_word(build_chain_presentation(2, 1), (1, 5), 2, 1)
    with pytest.raises(OutOfRange, match="empty commutator chain"):
        compression_word(build_chain_presentation(2, 1), (), 2, 0)


def test_compression_word_c1():
    pres, chain = chain_setup(1)
    for s in range(5):
        assert compression_word(pres, chain, 4, s) == (1,) * s


def test_compression_word_full_power():
    pres, chain = chain_setup(2)
    w = compression_word(pres, chain, 2, 4)
    assert w == (-1, -1, -2, -2, 1, 1, 2, 2)


def test_compression_word_c2_s3():
    pres, chain = chain_setup(2)
    w = compression_word(pres, chain, 2, 3)
    z1 = (-1, -2, 1, 2)
    assert w == z1 + (-1, -1, -2, 1, 1, 2)
    # oracle: same series as z1^3, namely 1 + 3(X1X2 - X2X1) at degree 2
    ctx = oracle.series_context(2, 2)
    vec = oracle.eval_word(w, 2, 2)
    expected = ctx.unit()
    expected[ctx.index[(1, 2)]] = 3
    expected[ctx.index[(2, 1)]] = -3
    assert vec == expected
    assert oracle_equal(pres, w, z1 * 3)


def test_compression_word_zero_reduces_to_empty():
    for c in (2, 3):
        pres, chain = chain_setup(c)
        assert free_reduce(compression_word(pres, chain, 2, 0)) == ()


@pytest.mark.parametrize("c,n", [(1, 2), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_compression_word_oracle_exhaustive(c, n):
    pres, chain = chain_setup(c)
    z1 = nested_commutator(chain)
    for s in range(n**c + 1):
        w = compression_word(pres, chain, n, s)
        assert oracle_equal(pres, w, z1 * s), (c, n, s)


def test_compression_word_length_linear():
    # length of ztilde^s is at most a class constant times n
    for c in (2, 3):
        pres, chain = chain_setup(c)
        for n in (2, 3, 4):
            for s in range(n**c + 1):
                w = compression_word(pres, chain, n, s)
                assert len(w) <= 30 * n


# --- increments -------------------------------------------------------------


def test_increment_c1_trivial():
    pres, chain = chain_setup(1)
    for s in range(3):
        seq = increment_sequence(pres, chain, 4, s)
        assert seq.moves == []
        assert seq.initial == (1,) * (s + 1)


def test_increment_no_carry_is_trivial():
    pres, chain = chain_setup(2)
    seq = increment_sequence(pres, chain, 2, 0)
    m, final = replay(seq)
    assert m.area == 0
    assert final == compression_word(pres, chain, 2, 1)


def test_increment_carry_c2():
    pres, chain = chain_setup(2)
    z1 = nested_commutator(chain)
    seq = increment_sequence(pres, chain, 2, 1)
    assert seq.initial == z1 + compression_word(pres, chain, 2, 1)
    m, final = replay(seq)
    assert final == compression_word(pres, chain, 2, 2)
    assert m.area > 0
    # k = 1 since 2 | s+1 = 2 but 4 does not
    assert m.area <= 20 * 2 ** 2
    assert oracle_equal(pres, seq.initial, final)


def grid_increments(c, n):
    pres, chain = chain_setup(c)
    for s in range(n**c):
        seq = increment_sequence(pres, chain, n, s)
        m, final = replay(seq)
        assert seq.initial == nested_commutator(chain) + compression_word(pres, chain, n, s)
        assert final == compression_word(pres, chain, n, s + 1)
        k = 0
        v = s + 1
        while v % n == 0:
            v //= n
            k += 1
        yield s, k, m


@pytest.mark.parametrize("c,n", [(2, 2), (2, 3), (3, 2)])
def test_increment_grid_valid_and_bounded(c, n):
    areas = {}
    for s, k, m in grid_increments(c, n):
        areas.setdefault(k, []).append(m.area)
        assert m.area <= m.height
    # valuation law: nontrivial area only on carries
    assert all(a == 0 for a in areas.get(0, []))


# --- block transport --------------------------------------------------------


def _transport(pres, w, chain, sign, start, target):
    """Move the block W^sign (W the nested commutator of ``chain``) at
    ``start`` in w to ``target`` in the split move shape."""
    mover = BlockMover(chain)
    b = SequenceBuilder(pres, w)
    if target <= start:
        mover.move_left(b, start, target, sign)
    else:
        mover.move_right(b, start, target, sign)
    return b.finish()


@pytest.mark.parametrize("letters", range(1, 7))
def test_block_mover_length_is_its_block_length(letters):
    # a one-letter move of the block of a chain of 1..6 letters on a chain
    # context, which adds any relator it is asked for: the block's letters
    # all move, and the swap's shift and split are its length plus one
    pres = Presentation([f"x{i}" for i in range(1, 8)], [1] * 7, [], 1)
    chain = tuple(range(1, letters + 1))
    W = list(nested_commutator(chain))
    for right, initial, final in ((False, [7] + W, W + [7]), (True, W + [7], [7] + W)):
        b = SequenceBuilder(ChainContext(pres, chain), initial)
        b.transport(chain, int(not right), int(right), 1, right)
        assert b.word == final
        assert b.finish().moves == [("ar", 0, 0, len(W) + 1, int(right), len(W) + 1)]


def test_transport_block_costs_length():
    pres, chain = chain_setup(2)
    z1 = nested_commutator(chain)
    # move z1 left past x1^3: cost exactly 3 applications
    w = (1, 1, 1) + z1
    seq = _transport(pres, w, chain, +1, 3, 0)
    m, final = replay(seq)
    assert final == z1 + (1, 1, 1)
    assert m.area == 3
    # and back to the right
    seq2 = _transport(pres, final, chain, +1, 0, 3)
    m2, final2 = replay(seq2)
    assert final2 == w
    assert m2.area == 3


def test_transport_inverse_block():
    pres, chain = chain_setup(2)
    z1inv = inverse_word(nested_commutator(chain))
    w = (-2,) + z1inv
    seq = _transport(pres, w, chain, -1, 1, 0)
    m, final = replay(seq)
    assert final == z1inv + (-2,)
    assert m.area == 1


def test_transport_level2_relator_past_x1():
    # moving a level-2 transport relator block past a level-1 letter
    pres, chain = chain_setup(3)
    r = nested_commutator((2, 2, 3))  # [x2, x2, x3], central at class 3
    w = (1,) + r
    seq = _transport(pres, w, (2, 2, 3), +1, 1, 0)
    m, final = replay(seq)
    assert final == r + (1,)
    assert m.area == 1


def test_transport_missing_relator():
    pres, chain = chain_setup(2)
    W = nested_commutator((1, 2, 2))
    with pytest.raises(NoTransportRelator):
        # a chain of c letters needs a (c+1)-entry relator, which P_1 has,
        # but a (c+1)-chain needs (c+2) entries, which it lacks
        _transport(pres, (1,) + W, (1, 2, 2), +1, 1, 0)
    with pytest.raises(NoTransportRelator):
        _transport(pres, W + (1,), (1, 2, 2), +1, 0, 1)
    # a pool with the relators [t, x1, x2] of t = x1 and x1^-1 only: the
    # block meets x1 letters first and x2 last, and every id is asked for
    # before any move, so the refused builder is as it was
    chain = (1, 2)
    pres = Presentation(["x1", "x2"], [1, 1],
                        [nested_commutator((t,) + chain) for t in (1, -1)], 2)
    W = list(nested_commutator(chain))
    for right, initial, start, step, target in ((False, [2, 1, -1, 1] + W, 4, -1, 0),
                                                (True, W + [1, -1, 1, 2], 0, 1, 4)):
        b = SequenceBuilder(pres, initial)
        b.transport(chain, start, start + step, 1, right)
        before = (list(b.word), list(b.finish().moves), b.area, b.fl)
        assert before[2] == 1
        with pytest.raises(NoTransportRelator):
            b.transport(chain, start + step, target, 1, right)
        assert (b.word, b.finish().moves, b.area, b.fl) == before


def _per_swap_moves(pool, chain, word, start, target, sign):
    """The moves of a block transport, one per letter passed, read from the
    pool's transport ids: a split swap ("ar", p, id of [sign t, chain],
    L + 1 or 0, inv, L + 1), or for a single-letter block meeting its own
    inverse a free reduction and the free expansion that puts the letters
    back swapped."""
    L = len(nested_commutator(chain))
    head, rids = word[start], pool._transport_ids[tuple(chain)]
    inv = int(target > start)
    if inv:
        positions, letters = range(start, target), word[start + L:target + L]
    else:
        positions, letters = range(start - 1, target - 1, -1), word[target:start][::-1]
    moves = []
    for p, t in zip(positions, letters):
        if L == 1 and t == -head:
            moves += [("fr", p), ("fe", p, -head if inv else head)]
        else:
            moves.append(("ar", p, rids[sign * t], L + 1 if sign > 0 else 0, inv, L + 1))
    return moves


def _transport_pool(name):
    """(pool, block chain, letters the block passes) of a presentation
    ("pres-k") or a fresh chain context ("ctx-k") for a block of k chain
    letters; a presentation's single-letter block is a central letter of a
    filler presentation."""
    kind, k = name.split("-")
    if kind == "ctx":
        chain = {"1": (2,), "2": (1, 3), "3": (2, 3, 1)}[k]
        letters = [1, 3] if k == "1" else [1, 2, 3]
        return ChainContext(build_chain_presentation(3, 1), (1, 2, 3)), chain, letters
    if k == "1":
        fpres = build_filler_presentation(2, 2)
        g = fpres.letters_of_weight(2)[1]
        return fpres, (g,), [a for a in range(1, fpres.rank + 1) if a != g]
    chain = (2, 1) if k == "2" else (3, 1, 2)
    return build_chain_presentation(len(chain), 1), chain, sorted(set(chain))


@pytest.mark.parametrize("name", ("pres-1", "pres-2", "pres-3", "ctx-1", "ctx-2", "ctx-3"))
@pytest.mark.parametrize("right", (False, True), ids=("left", "right"))
@pytest.mark.parametrize("sign", (1, -1))
def test_a_transport_equals_its_swaps_one_per_call(name, right, sign, monkeypatch):
    # a builder's transport, checked once per distinct letter passed, gives
    # the word, area, FL, height and moves of its per-swap moves applied
    # one per kernel call; only a single-letter block meeting its own
    # inverse takes the per-swap batch
    pool, chain, letters = _transport_pool(name)
    extend, calls = SequenceBuilder.extend, []

    def counted(self, *args):
        calls.append(args)
        return extend(self, *args)

    monkeypatch.setattr(SequenceBuilder, "extend", counted)
    block = nested_commutator(chain)
    if sign < 0:
        block = inverse_word(block)
    signed = [a for a in letters for a in (a, -a)]
    rng = random.Random(f"{name} {right} {sign}")
    for k in range(40):
        before = [rng.choice(signed) for _ in range(rng.randrange(9))]
        after = [rng.choice(signed) for _ in range(rng.randrange(9))]
        if len(chain) == 1 and k % 4 == 3:
            (before if right else after).insert(0, -block[0])
            (after if right else before).insert(rng.randrange(len(before) + 1), -block[0])
        initial = before + list(block) + after
        start = len(before)
        if right:
            end = start + len(after)
            target = end if k % 2 else rng.randint(start, end)
        else:
            target = 0 if k % 2 else rng.randint(0, start)
        b = SequenceBuilder(pool, initial)
        del calls[:]
        b.transport(tuple(chain), start, target, sign, right)
        moves = _per_swap_moves(pool, chain, initial, start, target, sign)
        assert one_move_per_call(pool, initial, moves) == ("ok", b.area, b.fl, b.word)
        assert b.finish().moves == moves and b.metrics.height == len(moves)
        assert bool(calls) == any(m[0] == "fe" for m in moves), (k, initial, target)


@pytest.mark.parametrize("right", (False, True), ids=("left", "right"))
@pytest.mark.parametrize("fault", ("block-not-at-start", "key-of-another-block"))
def test_a_refused_transport_fails_as_its_per_swap_moves(right, fault):
    # the kernel writes nothing when a check fails; the per-swap batch
    # then refuses the move with the reason, index and word of ``extend``
    pres = build_chain_presentation.__wrapped__(3, 1)
    chain, letters = (1, 2, 3), [1, 2, -1, 3, 1, -2]
    W = list(nested_commutator(chain))
    initial = W + letters if right else letters + W
    start, target = (0, len(letters)) if right else (len(letters), 0)
    if fault == "block-not-at-start":
        start += 1 if right else -1
    else:
        # the id of [t, W'] for another block W' of the same length
        t = letters[3]
        pres._transport_ids[chain] = {t: pres.relator_id((t, 2, 1, 3))}
    b = SequenceBuilder(pres, initial)
    with pytest.raises(NotApplicable) as got:
        b.transport(tuple(chain), start, target, 1, right)
    parent = SequenceBuilder(pres, initial)
    with pytest.raises(NotApplicable) as want:
        parent.extend(_per_swap_moves(pres, chain, initial, start, target, 1))
    assert want.value.reason.startswith("word does not carry relator prefix")
    assert (got.value.reason, got.value.move_index) == (want.value.reason,
                                                        want.value.move_index)
    assert b.word == parent.word and b.finish().moves == parent.finish().moves == []


@pytest.mark.parametrize("right,start,target", [(True, -9, -6), (False, 5, -3)],
                         ids=["right-from-a-negative-start", "left-to-a-negative-target"])
def test_a_transport_with_a_negative_end_is_refused(right, start, target):
    # a negative index would read the word from its end: the transport is
    # refused by its direction before any relator lookup, and the builder
    # stays as it was
    pres, chain, letters = build_chain_presentation(2, 1), (1, 2), [1, 2, -1, 2, 1]
    W = list(nested_commutator(chain))
    initial = W + letters if right else letters + W
    pool = Presentation(pres.names, pres.weights, pres.relators, pres.nclass)
    b = SequenceBuilder(pool, initial)
    b.extend([("fe", 0, 2), ("fr", 0)])
    before = (list(b.word), list(b.finish().moves), b.area, b.fl)
    direction = "rightward" if right else "leftward"
    with pytest.raises(NotApplicable) as got:
        b.transport(chain, start, target, 1, right)
    assert (got.value.reason, got.value.move_index) == (
        f"{direction} transport from {start} to {target} runs past the start of the word", None)
    assert (b.word, b.finish().moves, b.area, b.fl) == before
    assert pool._transport_ids == {}


@pytest.mark.parametrize("right", (False, True), ids=("left", "right"))
def test_a_transport_toward_the_wrong_side_is_refused(right):
    # a target past the block's far side names the direction and leaves
    # the builder as it was; a target at the start moves nothing
    pres, chain, letters = build_chain_presentation(2, 1), (1, 2), [1, 2, -1]
    W = list(nested_commutator(chain))
    initial = letters + W + letters
    start = len(letters)
    b = SequenceBuilder(pres, initial)
    b.transport(chain, start, start + (1 if right else -1), 1, right)
    before = (list(b.word), list(b.finish().moves), b.area, b.fl)
    start += 1 if right else -1
    b.transport(chain, start, start, 1, right)
    assert (b.word, b.finish().moves, b.area, b.fl) == before
    direction = "rightward" if right else "leftward"
    wrong = start - 1 if right else start + 1
    with pytest.raises(NotApplicable, match=f"{direction} transport from {start} "
                                            f"cannot end at {wrong}"):
        b.transport(chain, start, wrong, 1, right)
    assert (b.word, b.finish().moves, b.area, b.fl) == before


@pytest.mark.parametrize("pres,chain,initial,start,target", [
    (build_chain_presentation(3, 1), (2, 3), (1,) + nested_commutator((2, 3)) + (1,), 20, 25),
    (build_chain_presentation(3, 1), (2, 3), (1,) + nested_commutator((2, 3)) + (1,), 25, 20),
    (build_filler_presentation(1, 2), (1,), (1, 2, 2, 1), 5, 2),
    (build_filler_presentation(1, 2), (1,), (1, 2, 2, 1), 5, 7),
    (build_filler_presentation(1, 2), (1,), (1, 2, 2, 1), 0, 5),
], ids=["block-past-the-end-right", "block-past-the-end-left", "letter-past-the-end-left",
        "letter-past-the-end-right", "target-past-the-end-right"])
def test_a_transport_past_the_words_end_is_refused(pres, chain, initial, start, target):
    # a block at or moved to a place past the word's end is refused before
    # any move, and the builder stays as it was
    right = target > start
    b = SequenceBuilder(pres, initial)
    b.extend([("fe", 0, 2), ("fr", 0)])
    before = (list(b.word), list(b.segments), b.area, b.fl)
    with pytest.raises(NotApplicable, match=f"transport from {start} to {target} runs "
                                            f"past the end of a word of {len(initial)} letters"):
        b.transport(chain, start, target, 1, right)
    assert (b.word, b.segments, b.area, b.fl) == before
    assert b.finish().moves == [("fe", 0, 2), ("fr", 0)]


@pytest.mark.parametrize("name", ("pres-1", "pres-2", "pres-3"))
@pytest.mark.parametrize("right", (False, True), ids=("left", "right"))
@pytest.mark.parametrize("sign", (1, -1))
def test_a_transport_is_one_entry_read_as_its_per_swap_moves(name, right, sign):
    # a checked transport is recorded as one segment entry, and every reader
    # of the sequence sees the moves of the same swaps recorded one per swap;
    # a sequence whose one segment is the entry hands out a fresh list of
    # its moves, never the entry
    pool, chain, letters = _transport_pool(name)
    block = list(nested_commutator(chain))
    if sign < 0:
        block = list(inverse_word(block))
    rng = random.Random(f"{name} {right} {sign}")
    passed = [rng.choice(letters) * rng.choice((1, -1)) for _ in range(12)]
    initial = block + passed if right else passed + block
    start, target = (0, len(passed)) if right else (len(passed), 0)
    b = SequenceBuilder(pool, initial)
    b.transport(tuple(chain), start, target, sign, right)
    [(entry, offset)] = b.segments
    assert (type(entry), offset) == (engine.Transport, 0)
    per_swap = SequenceBuilder(pool, initial)
    per_swap.extend(_per_swap_moves(pool, chain, initial, start, target, sign))
    seq, want = b.finish(), per_swap.finish()
    assert type(seq.moves) is list and seq.moves is not seq.moves
    assert seq.moves == want.moves and len(want.moves) == len(passed)
    assert len(seq) == len(want) == seq.metrics.height
    assert serialize_trace(seq, "p.pres") == serialize_trace(want, "p.pres")
    assert replay(seq) == replay(want)
    assert replay(seq)[0] == seq.metrics == want.metrics


def test_a_long_transport_costs_one_pointer_per_swap():
    # a transport across thousands of letters grows the builder by its
    # relator ids, one pointer a swap; a 6-tuple a swap took 88 bytes and
    # a list slot more
    pool, chain, letters = _transport_pool("pres-1")
    passed = [a * s for a in letters for s in (1, -1)] * 500
    warm = SequenceBuilder(pool, passed + list(chain))
    warm.transport(chain, len(passed), 0, 1, False)
    b = SequenceBuilder(pool, passed + list(chain))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        b.transport(chain, len(passed), 0, 1, False)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert b.metrics.height == len(passed) == 5000
    assert b.word == warm.word == list(chain) + passed
    assert grown < 10 * len(passed)


def test_a_transport_that_is_not_checked_whole_records_per_swap_moves():
    # a single-letter block meeting its own inverse, and a block whose
    # relators are too long for a cached template (so the check per
    # distinct letter fails), are recorded as their per-swap moves in a
    # flat segment
    pool, chain, letters = _transport_pool("pres-1")
    g = chain[0]
    initial = [letters[0], -g, letters[1], g]
    b = SequenceBuilder(pool, initial)
    b.transport(chain, 3, 0, 1, False)
    moves = _per_swap_moves(pool, chain, initial, 3, 0, 1)
    assert ("fr", 1) in moves
    assert [(type(m), offset) for m, offset in b.segments] == [(list, 0)]
    assert b.finish().moves == moves
    chain = (1, 2, 3, 4, 5)
    ctx = ChainContext(Presentation([f"x{i}" for i in range(1, 8)], [1] * 7, [], 1), chain)
    W = list(nested_commutator(chain))
    assert len(nested_commutator((7,) + chain)) > engine.MAX_CACHED_RELATOR
    b = SequenceBuilder(ctx, [7, 6, -7] + W)
    b.transport(chain, 3, 0, 1, False)
    assert b.word == W + [7, 6, -7]
    assert [(type(m), offset) for m, offset in b.segments] == [(list, 0)]
    assert b.finish().moves == _per_swap_moves(ctx, chain, [7, 6, -7] + W, 3, 0, 1)


def test_context_relator_id_adds_a_relator_once():
    pres, chain = chain_setup(2)
    ctx = ChainContext(pres, chain)
    rid = ctx.relator_id((1,) + chain)
    assert ctx.relators == [nested_commutator((1,) + chain)]
    assert ctx.chains == [(1,) + chain]
    assert ctx.relator_id((1,) + chain) == rid
    assert ctx.relator_id((-2,) + chain) == rid + 1 and len(ctx.relators) == 2


# --- power compression ------------------------------------------------------


def test_power_compression_refuses_a_word_past_the_bound(monkeypatch):
    # a power compression is built and replayed under the kernel's word
    # bound: below its FL, the build and the replay both refuse a move
    pres, chain = chain_setup(2)
    seq = power_compression_sequence(pres, chain, 3)
    bound = seq.metrics.fl - 1
    monkeypatch.setattr(engine, "MAX_WORD_LENGTH", bound)
    with pytest.raises(NotApplicable, match=f"word longer than {bound} letters"):
        power_compression_sequence(pres, chain, 3)
    with pytest.raises(NotApplicable, match=f"word longer than {bound} letters"):
        replay(seq)


def test_power_compression_c1_zero_moves():
    pres, chain = chain_setup(1)
    seq = power_compression_sequence(pres, chain, 3)
    assert seq.moves == []
    assert seq.initial == (1, 1, 1)
    assert all(type(part) is not CheckedMoves for part, _ in seq.segments)  # nothing spliced


def test_power_compression_c2_n2():
    pres, chain = chain_setup(2)
    z1 = nested_commutator(chain)
    seq = power_compression_sequence(pres, chain, 2)
    assert seq.initial == z1 * 4
    m, final = replay(seq)
    assert final == compression_word(pres, chain, 2, 4) == (-1, -1, -2, -2, 1, 1, 2, 2)
    assert oracle_equal(pres, seq.initial, final)
    assert m.area <= m.height


@pytest.mark.parametrize("c,n", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_power_compression_validates_and_scales(c, n):
    pres, chain = chain_setup(c)
    seq = power_compression_sequence(pres, chain, n)
    m, final = replay(seq)
    assert final == compression_word(pres, chain, n, n**c)
    # the untouched power prefix dominates every intermediate word, so the
    # linear filling-length bound applies to the surplus beyond it
    assert m.fl <= len(seq.initial) + 40 * n
    assert m.area <= 40 * n ** (c + 1)


def isolated_increments(pres, chain, n, s_from, s_to):
    """Reference: increments s_from..s_to-1 each built on its own builder by
    ``helpers.increment_sequence`` and then applied at its offset, from
    z_1^(s_to - s_from) ztilde^s_from (padded with ztilde^0 when s_from = 0)."""
    zw = nested_commutator(chain)
    initial = zw * (s_to - s_from)
    if s_from:
        initial += compression_word(pres, chain, n, s_from)
    b = SequenceBuilder(pres, initial)
    if s_from == 0 and len(chain) > 1:
        insert_trivial_word(b, len(initial), compression_word(pres, chain, n, 0))
    for s in range(s_from, s_to):
        b.extend(increment_sequence(pres, chain, n, s).moves, (s_to - s - 1) * len(zw))
    return b


@pytest.mark.parametrize("c,chain,n", [
    *[(2, (1, 2), n) for n in range(2, 6)],
    *[(3, chain, n) for chain in ((1, 2, 3), (1, 3, 2), (2, 3, 1), (3, 2, 1))
      for n in range(2, 5)],
    (4, (1, 2, 3, 4), 2),
])
def test_power_compression_equals_isolated_increments(c, chain, n):
    # increments built in place emit the moves of the isolated construction
    pres = build_chain_presentation(c, 1)
    seq = power_compression_sequence(pres, chain, n)
    ref = isolated_increments(pres, chain, n, 0, n**c)
    assert seq.moves == ref.finish().moves
    assert seq.initial == ref.initial
    assert replay(seq)[1] == tuple(ref.word) == compression_word(pres, chain, n, n**c)


_SPLICED_CASES = [(2, (1, 2), 3), (3, (1, 2, 3), 3), (3, (2, 3, 1), 2), (4, (1, 2, 3, 4), 2)]


def _part_fields(part):
    """A record part by value: a flat batch's moves, or an entry's fields."""
    if type(part) is engine.Transport:
        return ("entry", part.positions, part.ids, part.shift, part.inv, part.split)
    return ("flat", tuple(part))


@pytest.mark.parametrize("c,chain,n", _SPLICED_CASES)
def test_power_compression_is_spliced_records(c, chain, n):
    # the moves sit in records, one for s = 0 and one for each carrying s;
    # each segment holds its record, with no copy of its parts, a record
    # keeps its transports as entries, and no flat moves sit between
    # records
    pres = build_chain_presentation(c, 1)
    seq = power_compression_sequence(pres, chain, n)
    assert all(not part for part, _ in seq.segments if type(part) is not CheckedMoves)
    spliced = [r for r, _ in seq.segments if type(r) is CheckedMoves and r.parts]
    assert all(type(part) in (tuple, engine.Transport) and part
               for r in spliced for part in r.parts)
    assert any(type(part) is engine.Transport for r in spliced for part in r.parts)
    assert len(spliced) == 1 + n ** (c - 1)
    assert len(seq) == len(seq.moves) == sum(len(part) for r in spliced for part in r.parts)
    flat = PSequence(pres, seq.initial, seq.moves)
    assert serialize_trace(seq, "p.pres") == serialize_trace(flat, "p.pres")
    assert replay(seq)[0] == seq.metrics


@pytest.mark.parametrize("c,chain,n", _SPLICED_CASES)
def test_power_compression_records_equal_register_records(c, chain, n):
    # the record spliced at s is the register's forward record at q = s,
    # part for part, spliced at the last z_1 of the word; a power
    # compression runs once per (chain, n), so it leaves nothing in the
    # context's memo
    pres, _ = _fresh_chain_presentation(c)
    seq = power_compression_sequence(pres, chain, n)
    assert chain_context(pres, chain).increments == {}
    total, lz = n**c, len(nested_commutator(chain))
    spliced = [(r, offset) for r, offset in seq.segments if type(r) is CheckedMoves]
    for s, (record, offset) in zip((0, *range(n - 1, total, n)), spliced, strict=True):
        reg = CompressedPower(chain_context(pres, chain), n)
        reg.q = s
        forward = reg.local_moves()
        assert offset == (total - s - 1) * lz
        assert list(map(_part_fields, record.parts)) == list(map(_part_fields, forward.parts))
        assert record_moves(record) == record_moves(forward)
        assert record.before == forward.before
        assert record.after == forward.after


def _assert_reads_as_its_flattened_copy(seq):
    """``seq``, whose records and segments hold transport entries, reads as
    the one flat batch of its moves to every reader: trace bytes, replay,
    length and inversion."""
    flat = PSequence(seq.presentation, seq.initial, seq.moves)
    assert serialize_trace(seq, "p.pres") == serialize_trace(flat, "p.pres")
    assert replay(seq) == replay(flat)
    assert replay(seq)[0] == seq.metrics
    assert len(seq) == len(flat) == seq.metrics.height
    assert invert_sequence(seq).moves == invert_sequence(flat).moves


@pytest.mark.parametrize("c,chain,n", [
    *[(3, chain, n) for chain in itertools.permutations((1, 2, 3)) for n in (2, 3)],
    (4, (1, 2, 3, 4), 2), (4, (3, 1, 4, 2), 2),
])
def test_a_power_compression_with_entries_reads_as_its_flattened_copy(c, chain, n):
    pres = build_chain_presentation(c, 1)
    seq = power_compression_sequence(pres, chain, n)
    assert any(type(part) is engine.Transport
               for r, _ in seq.segments if type(r) is CheckedMoves for part in r.parts)
    _assert_reads_as_its_flattened_copy(seq)


def test_fills_with_entries_read_as_their_flattened_copies():
    # seeded class-3 fills on a fresh presentation, whose shared chain
    # contexts splice some records once, some twice and some three times or
    # more; each fill reads as its flattened copy, and after one write of
    # every fill a record written once holds the marker and a record
    # written more often the template of its lines
    base = build_filler_presentation(3, 2)
    pres = Presentation(base.names, base.weights, base.relators, 3, base.parents)
    seqs = [fill(w, pres) for w in corpus_generate(pres, 12, 8, seed=7)]
    records, writes = {}, Counter()
    for seq in seqs:
        for r, _ in seq.segments:
            if type(r) is CheckedMoves and r.parts:
                records[id(r)] = r
                writes[id(r)] += 1
    assert {min(k, 3) for k in writes.values()} == {1, 2, 3}
    assert any(type(part) is engine.Transport
               for seq in seqs for part, _ in seq.segments)
    assert any(type(part) is engine.Transport for r in records.values() for part in r.parts)
    for seq in seqs:
        _assert_reads_as_its_flattened_copy(seq)
    for key, r in records.items():
        moves = [mv for part in r.parts for mv in part]
        if writes[key] == 1:
            assert r.trace_lines == {pres.names: ""}
        else:
            lines = "\n".join(traces._move_line(mv, pres.names) for mv in moves)
            assert r.trace_lines[pres.names].format(*[mv[1] for mv in moves]) == lines


@pytest.mark.parametrize("c,chain,n", _SPLICED_CASES)
def test_power_compression_leaves_no_shared_state(c, chain, n):
    # a power compression and a compression word each work on a chain
    # context of their own: the presentation keeps none, and the records a
    # power compression splices go with its sequence, by reference counting
    # alone (the context and its block movers form no reference cycle)
    pres, _ = _fresh_chain_presentation(c)
    gc.collect()
    gc.disable()
    try:
        seq = power_compression_sequence(pres, chain, n)
        assert replay(seq)[1] == compression_word(pres, chain, n, n**c)
        assert pres._chain_ctxs == {}
        record = weakref.ref(next(r for r, _ in seq.segments if type(r) is CheckedMoves))
        del seq
        assert record() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


@functools.lru_cache(maxsize=None)
def _natural_order_metrics(c, n):
    pres = build_chain_presentation(c, 1)
    return power_compression_sequence(pres, tuple(range(1, c + 1)), n).metrics


@pytest.mark.parametrize("c,chain,n", [
    *[(3, chain, n) for n in range(2, 5) for chain in itertools.permutations((1, 2, 3))],
    *[(4, chain, 2) for chain in itertools.permutations((1, 2, 3, 4))],
])
def test_power_compression_every_chain_ordering(c, chain, n):
    # the lift reads each inner block's chain from the chain context that
    # holds its relator, so every ordering of the chain letters compresses,
    # at the cost of x1..xc
    pres = build_chain_presentation(c, 1)
    seq = power_compression_sequence(pres, chain, n)
    assert replay(seq)[1] == compression_word(pres, chain, n, n**c)
    assert seq.metrics == _natural_order_metrics(c, n)
    ctx = ChainContext(pres, chain)
    reg = CompressedPower(ctx, n)
    for s in range(n - 1, n**c, n):
        reg.q = s
        reg.local_moves()
    assert ctx.relators
    for rid, relator in enumerate(ctx.relators):
        assert nested_commutator(ctx.chains[rid]) == relator


def _fresh_chain_presentation(c):
    """A chain presentation of its own, so its register memo starts empty."""
    base = build_chain_presentation(c, 1)
    return Presentation(base.names, base.weights, base.relators, c), tuple(range(1, c + 1))


@pytest.mark.parametrize("c,n,qs", [(2, 3, (0, 2, 5, 8)), (3, 2, (0, 1, 3, 7))])
def test_register_increment_equals_isolated_increment(c, n, qs):
    # a fresh presentation, so each local_moves call misses the memo
    pres, chain = _fresh_chain_presentation(c)
    for q in qs:
        reg = CompressedPower(chain_context(pres, chain), n)
        reg.q = q
        a_part = q % n**c
        assert record_moves(reg.local_moves()) == isolated_increments(
            pres, chain, n, a_part, a_part + 1).finish().moves


def extended_word(ctx, n, q):
    """ztilde^A (ztilde^{n^c})^B for q = A + B n^c, no padding when A = 0:
    the word a register holds at q, built from compression words."""
    cap = n**ctx.c
    head = compression_word(ctx.pres, ctx.chain, n, q % cap) if q % cap else ()
    return head + compression_word(ctx.pres, ctx.chain, n, cap) * (q // cap)


def _register_site(ctx, n, q, mirrored, prefix, suffix):
    """A word carrying the absorption subword at q between two pads, and
    the offset of the record's ``before`` in it."""
    z1 = ctx.z_words[0]
    reg_word = extended_word(ctx, n, q)
    if mirrored:
        # the mirror works on (ztilde^{A-part})^-1 z1^-1, at the right end
        head = len(reg_word) - len(extended_word(ctx, n, q % n**ctx.c))
        return (prefix + inverse_word(reg_word) + inverse_word(z1) + suffix,
                len(prefix) + head)
    return prefix + z1 + reg_word + suffix, len(prefix)


@pytest.mark.parametrize("c,n,qs", [(2, 2, (0, 1, 3, 4, 6)), (2, 3, (2, 5, 8, 9)),
                                    (3, 2, (0, 1, 3, 7, 8, 11))])
@pytest.mark.parametrize("mirrored", [False, True])
def test_splice_matches_kernel_extend(c, n, qs, mirrored):
    # a record's checked effect, spliced in, gives the word, moves, area and
    # FL that running its moves through the kernel gives
    pres, chain = _fresh_chain_presentation(c)
    for q in qs:
        for prefix, suffix in (((), ()), ((2, 1, -2), (1, 1))):
            reg = CompressedPower(chain_context(pres, chain), n, mirrored)
            reg.q = q
            record = reg.local_moves()
            word, offset = _register_site(reg.ctx, n, q, mirrored, prefix, suffix)
            assert list(word[offset:offset + len(record.before)]) == record.before
            spliced, twin = SequenceBuilder(pres, word), SequenceBuilder(pres, word)
            spliced.splice(record, offset)
            twin.extend(record_moves(record), offset)
            assert spliced.word == twin.word
            assert spliced.finish().moves == twin.finish().moves
            assert spliced.metrics == twin.metrics == replay(spliced.finish())[0]


def test_splice_where_before_does_not_sit_is_refused_by_the_kernel():
    pres, chain = _fresh_chain_presentation(2)
    reg = CompressedPower(chain_context(pres, chain), 2)
    reg.q = 3
    record = reg.local_moves()
    word, offset = _register_site(reg.ctx, 2, 3, False, (2, 1), ())
    with pytest.raises(NotApplicable) as kernel:
        apply_moves(list(word), record_moves(record), pres, offset + 1)
    b = SequenceBuilder(pres, word)
    with pytest.raises(NotApplicable) as spliced:
        b.splice(record, offset + 1)
    assert spliced.value.move_index == kernel.value.move_index is not None
    assert spliced.value.reason == kernel.value.reason


def _drop_last_move(seq):
    return PSequence(seq.presentation, seq.initial, seq.moves[:-1])


def _flip_first_relator(seq):
    moves = list(seq.moves)
    k = next(i for i, mv in enumerate(moves) if mv[0] == "ar")
    _, p, rid, shift, inv, split = moves[k]
    moves[k] = ("ar", p, rid, shift, 1 - inv, split)
    return PSequence(seq.presentation, seq.initial, moves)


@pytest.mark.parametrize("corrupt,error", [(_flip_first_relator, NotApplicable),
                                           (_drop_last_move, AssertionError)])
def test_corrupt_mirror_caught_on_first_mirrored_absorption(monkeypatch, corrupt, error):
    # the mirror record passes the kernel once when it is made, so a bad
    # inversion stops the first absorption that asks for it and is not kept
    pres, chain = _fresh_chain_presentation(2)
    invert = compression.invert_sequence
    monkeypatch.setattr(compression, "invert_sequence", lambda seq: corrupt(invert(seq)))
    z1 = nested_commutator(chain)
    n, q = 2, 1        # s + 1 = n: the increment carries, so it has relators
    reg = CompressedPower(chain_context(pres, chain), n, mirrored=True)
    reg.q = q
    word, _ = _register_site(reg.ctx, n, q, True, (), ())
    b = SequenceBuilder(pres, word)
    with pytest.raises(error):
        reg.absorb(b, len(word) - len(z1))
    assert b.word == list(word) and not b.finish().moves
    memo = reg.ctx.increments
    assert reg.q == q and (n, q, False) in memo and (n, q, True) not in memo


# --- extended compression ----------------------------------------------------


def test_extended_word_conventions():
    # the conventions of the extended word the register tests compare against
    pres, chain = chain_setup(2)
    ctx = chain_context(pres, chain)
    assert extended_word(ctx, 2, 0) == ()
    block = compression_word(pres, chain, 2, 4)
    assert extended_word(ctx, 2, 4) == block
    assert extended_word(ctx, 2, 6) == compression_word(pres, chain, 2, 2) + block


def test_extended_compression_oracle():
    pres, chain = chain_setup(2)
    z1 = nested_commutator(chain)
    # from z1^q the register reaches the extended compression word, which
    # the oracle confirms equals z1^q
    for q in (0, 1, 4, 6, 9):
        reg = CompressedPower(chain_context(pres, chain), 2)
        b = SequenceBuilder(pres, z1 * q)
        for s in range(q):
            reg.absorb(b, (q - s - 1) * len(z1))
        assert reg.q == q
        word = extended_word(reg.ctx, 2, q)
        assert b.word == list(word)
        assert reg.length == len(b.word)
        seq = b.finish()
        assert replay(seq)[1] == word and seq.initial == z1 * q
        assert oracle_equal(pres, word, z1 * q), q


@pytest.mark.parametrize("c,n", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("mirrored", [False, True])
def test_compressed_power_register(c, n, mirrored):
    # the register reads its length and the mirror's splice offset off the
    # records it splices: past two block crossings, every absorption leaves
    # the extended word (mirrored: its inverse), as long as the register says
    pres, chain = _fresh_chain_presentation(c)
    reg = CompressedPower(chain_context(pres, chain), n, mirrored)
    z1 = reg.ctx.z_words[0]
    for q in range(2 * n**c + 2):
        word = extended_word(reg.ctx, n, q)
        if mirrored:
            # ... (ztilde^q)^-1 z1^-1, the z1^-1 word right of the register
            b = SequenceBuilder(pres, inverse_word(word) + inverse_word(z1))
            reg.absorb(b, reg.length)
        else:
            b = SequenceBuilder(pres, z1 + word)
            reg.absorb(b, 0)
        want = extended_word(reg.ctx, n, q + 1)
        assert reg.q == q + 1
        assert b.word == list(inverse_word(want) if mirrored else want)
        assert reg.length == len(b.word)


# The whole insertions of the [x1, x2] block passing x1 x2^-1 x2 x1 on a
# fresh chain context, one per letter: the relator [t, W]^-1 and its five
# free reductions, the relators numbered in the order the block meets them.
_WHOLE_INSERTIONS = {
    1: [("ar", 8, 0, 0, 0, 0), ("fr", 7), ("fr", 6), ("fr", 5), ("fr", 4), ("fr", 3),
        ("ar", 7, 1, 0, 0, 0), ("fr", 6), ("fr", 5), ("fr", 4), ("fr", 3), ("fr", 2),
        ("ar", 6, 2, 0, 0, 0), ("fr", 5), ("fr", 4), ("fr", 3), ("fr", 2), ("fr", 1),
        ("ar", 5, 0, 0, 0, 0), ("fr", 4), ("fr", 3), ("fr", 2), ("fr", 1), ("fr", 0)],
    -1: [("ar", 3, 0, 0, 0, 0), ("fr", 12), ("fr", 11), ("fr", 10), ("fr", 9), ("fr", 8),
         ("ar", 2, 1, 0, 0, 0), ("fr", 11), ("fr", 10), ("fr", 9), ("fr", 8), ("fr", 7),
         ("ar", 1, 2, 0, 0, 0), ("fr", 10), ("fr", 9), ("fr", 8), ("fr", 7), ("fr", 6),
         ("ar", 0, 0, 0, 0, 0), ("fr", 9), ("fr", 8), ("fr", 7), ("fr", 6), ("fr", 5)],
}


def test_transport_exact_shape_matches_split_shape():
    # a block moves one way on both pools, one split swap per letter passed;
    # the lift rewrites the context's run into whole insertions, which the
    # kernel takes to the same word at the same area
    pres, chain = chain_setup(2)
    z1 = nested_commutator(chain)
    for sign, block in ((1, z1), (-1, inverse_word(z1))):
        w = (1, -2, 2, 1) + block
        ctx = ChainContext(pres, chain)
        for pool in (pres, ctx):
            b = SequenceBuilder(pool, w)
            BlockMover(chain).move_left(b, 4, 0, sign)
            seq = b.finish()
            assert tuple(b.word) == block + (1, -2, 2, 1)
            assert seq.metrics.area == 4
            assert [mv[5] for mv in seq.moves if mv[0] == "ar"] == [len(z1) + 1] * 4
        whole = list(compression._whole_insertions(seq.moves, ctx.relators))
        assert whole == _WHOLE_INSERTIONS[sign]
        b = SequenceBuilder(ctx, w)
        b.extend(whole)
        assert tuple(b.word) == block + (1, -2, 2, 1) and b.area == 4


@pytest.mark.parametrize("move", [("ar", 1, 0, 1, 0, 5), ("ar", 1, 0, 5, 1, 5)],
                         ids=["shift-1", "inv-1"])
def test_lift_refuses_an_application_that_is_no_swap(move):
    # only a block's swap rewrites into a whole insertion: a rotation that
    # starts inside the block, or an inverted application, is refused
    pres, chain = chain_setup(2)
    ctx = ChainContext(pres, chain)
    ctx.relator_id((1,) + chain)
    with pytest.raises(AssertionError, match="must insert whole relators"):
        list(compression._whole_insertions([("fr", 0), move], ctx.relators))


# --- summation and counting checks -------------------------------------------


@pytest.mark.parametrize("c,n", [(2, 2), (2, 4), (3, 2), (3, 3)])
def test_counting_argument_and_total_area(c, n):
    # at most n^(c-k) exponents s in [0, n^c) have n^k dividing s+1, and the
    # increment areas sum to at most (c+1) * kappa * n^(c+1)
    kappa = {2: 16, 3: 48}[c]
    pres, chain = chain_setup(c)
    by_valuation = {}
    total_area = 0
    for s in range(n**c):
        k, v = 0, s + 1
        while v % n == 0:
            v //= n
            k += 1
        by_valuation[k] = by_valuation.get(k, 0) + 1
        m, _ = replay(increment_sequence(pres, chain, n, s))
        total_area += m.area
    for k, cnt in by_valuation.items():
        assert cnt <= n ** (c - k)
    assert total_area <= (c + 1) * kappa * n ** (c + 1)


def test_invert_increment_spec_example():
    # inverting a carry increment gives (ztilde^s)^-1 z1^-1 -> (ztilde^{s+1})^-1
    from nilfill.engine import invert_sequence

    pres, chain = chain_setup(2)
    seq = increment_sequence(pres, chain, 3, 2)  # s+1 = 3 = n, a carry
    inv = invert_sequence(seq)
    m0, _ = replay(seq)
    m1, final = replay(inv)
    assert inv.initial == inverse_word(seq.initial)
    assert final == inverse_word(compression_word(pres, chain, 3, 3))
    assert (m1.area, m1.fl, m1.height) == (m0.area, m0.fl, m0.height)


def test_fill_multi_register_m3():
    from nilfill.filler import fill_with_report
    from nilfill.presentations import build_filler_presentation
    from nilfill.engine import validate_null
    from nilfill.corpus import corpus_generate

    pres = build_filler_presentation(2, 3)
    for w in corpus_generate(pres, 18, 12, seed=13):
        seq, report = fill_with_report(w, pres)
        validate_null(seq)
        assert report.max_register <= report.register_bound


def test_power_compression_class4():
    # three levels of concurrent lifting; endpoints exact and oracle-confirmed
    pres, chain = chain_setup(4)
    seq = power_compression_sequence(pres, chain, 2)
    m, final = replay(seq)
    assert final == compression_word(pres, chain, 2, 16)
    assert oracle_equal(pres, seq.initial, final)
