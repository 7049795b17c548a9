import ast
import dataclasses
import pathlib
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (apply_move, fill, longest_relator, one_move_per_call,
                     random_valid_sequence)

from nilfill import engine, oracle
from nilfill.compression import ChainContext
from nilfill.engine import (
    CheckedMoves,
    PSequence,
    SequenceBuilder,
    apply_moves,
    block_reduction_moves,
    check_moves,
    invert_sequence,
    normalize_insertions,
    pair_inverse_moves,
    replay,
    validate_null,
)
from nilfill.errors import NoTransportRelator, NotApplicable, NotNull
from nilfill.presentations import (Presentation, build_chain_presentation,
                                  build_filler_presentation)
from nilfill.words import inverse_word, nested_commutator


@pytest.fixture(scope="module")
def chain22():
    return build_chain_presentation(2, 1)


@pytest.fixture(scope="module")
def filler22():
    return build_filler_presentation(2, 2)


def test_free_expansion_on_empty(chain22):
    assert apply_move((), ("fe", 0, 1), chain22) == (1, -1)
    assert apply_move((), ("fe", 0, -2), chain22) == (-2, 2)


def test_free_reduction(chain22):
    assert apply_move((1, 2, -2, -1), ("fr", 1), chain22) == (1, -1)
    with pytest.raises(NotApplicable):
        apply_move((1, 2), ("fr", 0), chain22)
    with pytest.raises(NotApplicable):
        apply_move((1, -1), ("fr", 1), chain22)


def test_whole_relator_insertion(chain22):
    # split=0 inserts an entire cyclic conjugate of r^{+-1} into the empty word
    r = chain22.relators[0]
    got = apply_move((), ("ar", 0, 0, 0, 0, 0), chain22)
    assert got == inverse_word(r)
    got = apply_move((), ("ar", 0, 0, 0, 1, 0), chain22)
    assert got == r


def test_relator_application_swap_example(filler22):
    # r = [x1, g12] = x1^-1 g^-1 x1 g; applying it with split=2 on u = g x1
    # replaces g x1 by x1 g: u v^-1 = g x1 g^-1 x1^-1 = shift-2 conjugate of r^-1.
    g = filler22.name_to_index["g12"]
    r = (-1, -g, 1, g)
    rid = filler22.relator_index[r]
    rinv = inverse_word(r)
    target = (g, 1, -g, -1)
    # direct rotation enumeration
    rotations = [rinv[i:] + rinv[:i] for i in range(len(rinv))]
    assert rotations.index(target) == 2
    got = apply_move((g, 1), ("ar", 0, rid, 2, 1, 2), filler22)
    assert got == (1, g)


def test_relator_application_delete_whole(chain22):
    r = chain22.relators[3]
    rid = 3
    got = apply_move(r, ("ar", 0, rid, 0, 0, len(r)), chain22)
    assert got == ()


def test_replay_metrics(chain22):
    seq = PSequence(chain22, (1, 2), [])
    metrics, final = replay(seq)
    assert (metrics.area, metrics.fl, metrics.height) == (0, 2, 0)
    assert final == (1, 2)

    seq = PSequence(chain22, (), [("fe", 0, 1), ("fr", 0)])
    metrics, final = replay(seq)
    assert (metrics.area, metrics.fl, metrics.height) == (0, 2, 2)
    assert final == ()


def test_validate_null(chain22):
    seq = PSequence(chain22, (), [("fe", 0, 1), ("fr", 0)])
    m = validate_null(seq)
    assert m.area == 0
    seq = PSequence(chain22, (1,), [])
    with pytest.raises(NotNull):
        validate_null(seq)


def test_insert_relator_then_remove_is_null(chain22):
    # Insert a whole relator conjugate, then delete it with a second
    # application.  (Pruned relator sets contain no freely trivial words,
    # so a null-sequence for the empty word needs both applications.)
    rid = 0
    r = chain22.relators[rid]
    b = SequenceBuilder(chain22, ())
    b.extend([("ar", 0, rid, 0, 0, 0),         # inserts r^-1
              ("ar", 0, rid, 0, 1, len(r))])   # u = whole of r^-1, v = empty
    seq = b.finish()
    m = validate_null(seq)
    assert m.area == 2
    assert m.fl == len(r)


def test_replay_reports_move_index(chain22):
    seq = PSequence(chain22, (1,), [("fe", 0, 2), ("fr", 1)])
    with pytest.raises(NotApplicable) as exc:
        replay(seq)
    assert exc.value.move_index == 1


def test_normalize_insertions_properties(chain22):
    rng = random.Random(21)
    for _ in range(150):
        seq = random_valid_sequence(chain22, rng)
        m0, end0 = replay(seq)
        norm = normalize_insertions(seq)
        m1, end1 = replay(norm)
        assert all(mv[5] == 0 for mv in norm.moves if mv[0] == "ar")
        assert m1.area == m0.area
        assert m1.fl <= m0.fl + longest_relator(chain22)
        assert end1 == end0
        assert norm.initial == seq.initial


def test_normalize_already_normalized(chain22):
    seq = PSequence(chain22, (), [("ar", 0, 0, 0, 0, 0)])
    norm = normalize_insertions(seq)
    assert norm.moves == seq.moves
    assert replay(norm)[0] == replay(seq)[0]


def test_normalize_swap_example(filler22):
    # the split=2 swap g x1 -> x1 g becomes: insert u^-1 v, then <= C reductions
    g = filler22.name_to_index["g12"]
    rid = filler22.relator_index[(-1, -g, 1, g)]
    seq = PSequence(filler22, (g, 1), [("ar", 0, rid, 2, 1, 2)])
    norm = normalize_insertions(seq)
    m, end = replay(norm)
    assert end == (1, g)
    ar_moves = [mv for mv in norm.moves if mv[0] == "ar"]
    assert len(ar_moves) == 1 and ar_moves[0][5] == 0
    # inserted word is u^-1 v = x1^-1 g^-1 x1 g
    inserted = apply_move((), ar_moves[0][:1] + (0,) + ar_moves[0][2:], filler22)
    assert inserted == (-1, -g, 1, g)


def test_invert_sequence_trivial(chain22):
    seq = PSequence(chain22, (1, 2), [])
    inv = invert_sequence(seq)
    assert inv.initial == (-2, -1)
    assert inv.moves == []


def test_invert_sequence_metrics_and_endpoints(chain22):
    rng = random.Random(33)
    for _ in range(150):
        seq = random_valid_sequence(chain22, rng)
        m0, end0 = replay(seq)
        inv = invert_sequence(seq)
        m1, end1 = replay(inv)
        assert end1 == inverse_word(end0)
        assert (m1.area, m1.fl, m1.height) == (m0.area, m0.fl, m0.height)


def test_concatenate(chain22):
    # sequences concatenate by joining their move lists
    s1 = PSequence(chain22, (), [("fe", 0, 1)])
    s2 = PSequence(chain22, (1, -1), [("fr", 0)])
    m = validate_null(PSequence(chain22, s1.initial, s1.moves + s2.moves))
    assert m.height == 2
    # a join whose endpoints disagree fails at the first move of the second
    with pytest.raises(NotApplicable) as exc:
        replay(PSequence(chain22, s2.initial, s2.moves + s2.moves))
    assert exc.value.move_index == 1


def test_concatenate_metrics_additive(chain22):
    rng = random.Random(55)
    for _ in range(60):
        s1 = random_valid_sequence(chain22, rng)
        _, end1 = replay(s1)
        s2 = random_valid_sequence(chain22, rng, start=end1)
        m1, _ = replay(s1)
        m2, _ = replay(s2)
        m, _ = replay(PSequence(chain22, s1.initial, s1.moves + s2.moves))
        assert m.area == m1.area + m2.area
        assert m.height == m1.height + m2.height
        assert m.fl == max(m1.fl, m2.fl)


def test_area_le_height_always(chain22):
    rng = random.Random(77)
    for _ in range(100):
        seq = random_valid_sequence(chain22, rng)
        m, _ = replay(seq)
        assert m.area <= m.height
        assert m.fl >= len(seq.initial)
        assert m.fl >= m.final_length


def test_moves_preserve_group_element(chain22):
    # every word in a valid sequence is oracle-equal to the initial word
    rng = random.Random(101)
    for _ in range(25):
        seq = random_valid_sequence(chain22, rng, steps=8)
        word = list(seq.initial)
        base = oracle.eval_word(seq.initial, 2, 2)
        for mv in seq.moves:
            apply_moves(word, [mv], chain22)
            assert oracle.eval_word(
                tuple(word) + inverse_word(seq.initial), 2, 2
            ) == oracle.eval_word((), 2, 2) or oracle.eval_word(
                tuple(word), 2, 2
            ) == base


def test_builder_helpers(chain22):
    b = SequenceBuilder(chain22, (1, 2))
    b.extend(pair_inverse_moves(1, inverse_word((1, 2))))  # x1 [ (x1 x2)^-1 x1 x2 ] x2
    assert b.word == [1, -2, -1, 1, 2, 2]
    b2 = SequenceBuilder(chain22, ())
    b2.extend(pair_inverse_moves(0, (1, 2)))
    assert b2.word == [1, 2, -2, -1]
    b2.extend(block_reduction_moves(0, 2))
    assert b2.word == []
    validate_null(b2.finish())


def test_kernel_offset_and_emit(chain22):
    # a batch the builder extends at an offset is recorded shifted, and the
    # recorded moves replay from the same start to the same word
    r = chain22.relators[0]
    batch = [("fe", 0, 1), ("fr", 0), ("ar", 0, 0, 0, 0, 0)]
    b = SequenceBuilder(chain22, (2, 2))
    b.extend(batch, 1)
    assert b.moves == [("fe", 1, 1), ("fr", 1), ("ar", 1, 0, 0, 0, 0)]
    assert b.word == [2] + list(inverse_word(r)) + [2]
    assert (b.area, b.fl) == (1, max(4, 2 + len(r)))
    metrics, final = replay(PSequence(chain22, (2, 2), b.moves))
    assert list(final) == b.word
    assert (metrics.area, metrics.fl) == (b.area, b.fl)
    # errors carry the index within the batch, and a refused batch is not
    # recorded
    b = SequenceBuilder(chain22, (2, 2))
    with pytest.raises(NotApplicable) as exc:
        b.extend([("fe", 0, 1), ("fr", 5)], 1)
    assert exc.value.move_index == 1
    assert b.moves == []


def test_builder_metrics_equal_replay():
    # the builder sums what the kernel returns per batch; a replay of the
    # finished sequence must measure the same
    from nilfill.compression import power_compression_sequence
    from nilfill.corpus import corpus_generate

    fpres = build_filler_presentation(3, 2)
    w = corpus_generate(fpres, 10, 1, seed=5)[0]
    cpres = build_chain_presentation(3, 1)
    for seq in (fill(w, fpres), power_compression_sequence(cpres, (1, 2, 3), 3)):
        assert seq.moves
        assert seq.metrics == replay(seq)[0]


# -- segments -------------------------------------------------------------


@pytest.fixture(scope="module")
def spliced_fills():
    """Class-3 fills whose registers splice several memoized increments."""
    from nilfill.corpus import corpus_generate

    fpres = build_filler_presentation(3, 2)
    seqs = [fill(w, fpres) for w in corpus_generate(fpres, 12, 4, seed=5)]
    return [seq for seq in seqs if sum(r is not None for r, _, _ in seq.segments) >= 2]


@pytest.fixture(scope="module")
def built_compressions():
    """Power compressions whose transports are entries, at the top level
    and inside records: every class-3 chain ordering at n = 2 and 3,
    (1, 2, 3) at n = 5, and two class-4 orderings at n = 2."""
    from nilfill.compression import power_compression_sequence

    c3, c4 = build_chain_presentation(3, 1), build_chain_presentation(4, 1)
    jobs = [(c3, chain, n) for chain in permutations((1, 2, 3)) for n in (2, 3)]
    jobs += [(c3, (1, 2, 3), 5), (c4, (1, 2, 3, 4), 2), (c4, (2, 4, 1, 3), 2)]
    return [power_compression_sequence(pres, chain, n) for pres, chain, n in jobs]


def _entry_sites(seq):
    """(segment index, part index, entry) of every ``Transport`` entry of
    ``seq``; the part index is None for an entry that is a segment."""
    sites = []
    for i, (record, moves, _) in enumerate(seq.segments):
        parts = enumerate(record.parts) if record is not None else [(None, moves)]
        sites += [(i, j, part) for j, part in parts if type(part) is engine.Transport]
    return sites


def test_segmented_sequence_replays_as_its_flattened_copy(spliced_fills, built_compressions):
    assert spliced_fills
    seqs = spliced_fills + built_compressions
    for seq in seqs:
        flat = PSequence(seq.presentation, seq.initial, seq.moves)
        assert len(flat.segments) == 1
        assert replay(seq) == replay(flat)
        assert replay(seq)[0] == seq.metrics
    # entries sit at the top level and inside records
    sites = [site for seq in seqs for site in _entry_sites(seq)]
    assert {j is None for _, j, _ in sites} == {True, False}


def test_passing_sequence_expands_no_entry(spliced_fills, built_compressions, monkeypatch):
    # the kernel applies every entry of a built sequence as one checked
    # move, so no entry is expanded into its swaps
    def refuse(self, offset):
        raise AssertionError("expanded")

    monkeypatch.setattr(engine.Transport, "at", refuse)
    for seq in spliced_fills + built_compressions:
        assert _entry_sites(seq)
        assert replay(seq)[0] == seq.metrics


def test_segmented_length_needs_no_flattening(spliced_fills, monkeypatch):
    def refuse(segments):
        raise AssertionError("flattened")

    monkeypatch.setattr(engine, "_flatten", refuse)
    for seq in spliced_fills:
        assert len(seq) == seq.metrics.height
        assert replay(seq)[0] == seq.metrics


def test_spliced_segment_holds_the_records_own_moves(spliced_fills):
    # a segment holds its record's own parts, with no copy: flat batches
    # as interned tuples and transports as entries
    kinds = set()
    for seq in spliced_fills:
        spliced = [(r, parts) for r, parts, _ in seq.segments if r is not None]
        assert len(spliced) >= 2
        for record, parts in spliced:
            assert isinstance(record, CheckedMoves)
            assert parts is record.parts
            kinds.update(type(part) for part in parts)
    assert kinds == {tuple, engine.Transport}


def test_flattened_moves_sit_at_their_offsets(chain22):
    record = check_moves(chain22, [1, -1], [("fr", 0), ("fe", 0, 2)])
    b = SequenceBuilder(chain22, (2, 1, -1))
    b.extend([("fe", 0, 1)])
    b.splice(record, 3)
    b.extend([("fr", 0)])
    assert b.word == [2, 2, -2]
    assert b.moves == [("fe", 0, 1), ("fr", 3), ("fe", 3, 2), ("fr", 0)]
    seq = b.finish()
    assert [r for r, _, _ in seq.segments] == [None, record, None]
    assert len(seq) == 4 and seq.moves == b.moves


def test_replay_reports_index_in_the_whole_sequence(chain22):
    # a bad move in a later segment, flat or spliced, is reported by its
    # index in the whole sequence
    record = check_moves(chain22, [1, -1], [("fe", 2, 2), ("fr", 0)])
    head = (None, [("fe", 0, 1), ("fe", 0, 2)], 0)      # word 2 -2 1 -1
    spliced = (record, record.moves, 2)                  # word 2 -2 2 -2
    for segments, index in (([head, spliced, (None, [("fr", 0), ("fr", 3)], 0)], 5),
                            ([head, (record, record.moves, 1)], 3),
                            ([head, spliced, (record, record.moves, 3)], 4)):
        seq = PSequence(chain22, (), segments=segments)
        with pytest.raises(NotApplicable) as exc:
            replay(seq)
        assert exc.value.move_index == index
        with pytest.raises(NotApplicable) as flat:
            replay(PSequence(chain22, (), seq.moves))
        assert (flat.value.move_index, flat.value.reason) == (index, exc.value.reason)


# -- transport entries: one checked move against their expanded swaps --------


@pytest.fixture(scope="module")
def entry_sequences(spliced_fills, built_compressions):
    """The shortest built class-3 fill with entries at the top level and
    inside records, and a built (1, 2, 3) compression at n = 3, each with
    the entries it holds."""
    fills = [seq for seq in spliced_fills
             if len({j is None for _, j, _ in _entry_sites(seq)}) == 2]
    seqs = [min(fills, key=len), built_compressions[1]]
    return [(seq, _entry_sites(seq)) for seq in seqs]


def _with_entry(seq, site, entry) -> PSequence:
    """``seq`` with the entry at ``site`` replaced by ``entry``; a record
    that holds it is copied, never changed."""
    i, j, _ = site
    segments = list(seq.segments)
    record, _, offset = segments[i]
    if j is None:
        segments[i] = (None, entry, 0)
    else:
        parts = record.parts[:j] + (entry,) + record.parts[j + 1:]
        segments[i] = (dataclasses.replace(record, parts=parts), parts, offset)
    return PSequence(seq.presentation, seq.initial, segments=segments)


def _replay_verdict(seq):
    try:
        return replay(seq)
    except NotApplicable as exc:
        return exc.reason, exc.move_index


@settings(max_examples=150, deadline=None)
@given(draw=st.data())
def test_a_corrupted_entry_replays_as_its_flattened_copy(entry_sequences, draw):
    # one entry, top level or inside a spliced record, gets another
    # letter's relator id or one out of range at one swap, a range moved by
    # one or reversed, or a changed shift, inversion flag or split: replay
    # refuses it with the reason and index of the flattened copy, or
    # accepts it with the same metrics and final word
    seq, sites = draw.draw(st.sampled_from(entry_sequences))
    site = draw.draw(st.sampled_from(sites))
    entry = site[2]
    positions, ids = entry.positions, entry.ids
    fields = [entry.shift, entry.inv, entry.split]
    kind = draw.draw(st.sampled_from(["id", "range", "reversed", "field"]))
    if kind == "id":
        # most often the id of another letter the same block passes
        i = draw.draw(st.integers(0, len(ids) - 1))
        same = {rid for _, _, e in sites for rid in e.ids
                if (e.shift, e.inv, e.split) == tuple(fields)} - {ids[i]}
        others = {rid for _, _, e in sites for rid in e.ids} - {ids[i]}
        bad = len(seq.presentation.relators)
        rid = draw.draw(st.sampled_from(sorted(same or others) or [bad])
                        | st.sampled_from(sorted(others) + [-1, bad, bad + 7]))
        ids = ids[:i] + (rid,) + ids[i + 1:]
    elif kind == "range":
        d = draw.draw(st.sampled_from([-1, 1]))
        positions = range(positions.start + d, positions.stop + d, positions.step)
    elif kind == "reversed":
        positions = positions[::-1]
    else:
        k = draw.draw(st.integers(0, 2))
        fields[k] += draw.draw(st.sampled_from([-2, -1, 1, 2]))
    mutated = _with_entry(seq, site, engine.Transport(positions, ids, *fields))
    flat = PSequence(seq.presentation, seq.initial, mutated.moves)
    assert _replay_verdict(mutated) == _replay_verdict(flat)


def _entry_and_word(seqs, step):
    """(pool, entry, offset, word) of the first built entry of more than
    two swaps whose step is ``step``, on the word it was applied to."""
    for seq in seqs:
        pool, word = seq.presentation, seq.initial
        for part, offset in engine._parts(seq.segments):
            if type(part) is engine.Transport and part.positions.step == step and len(part) > 2:
                return pool, part, offset, list(word)
            word = replay(PSequence(pool, word, segments=[(None, part, offset)]))[1]
    raise AssertionError(f"no entry of step {step}")


@pytest.mark.parametrize("step", [-1, 1])
def test_the_entry_kernel_refuses_each_failed_check(spliced_fills, built_compressions, step):
    # a built entry on the word it was applied to, then on that word with a
    # letter of the block or a letter passed changed, cut short, or with
    # the run moved past the start, and the entry with its positions two
    # apart or one fewer than its ids: each leaves the word as it was, and
    # replay gives the verdict of the flattened copy, a refusal on a changed
    # word
    pool, entry, offset, word = _entry_and_word(built_compressions + spliced_fills, step)
    after = list(word)
    assert engine._apply_transport(after, entry, pool, offset)
    positions, k, L = entry.positions_at(offset), len(entry), entry.split - 1
    p = positions[0]
    block_at, passed_at = (p, p + L + k - 1) if step > 0 else (p + 1, p - k + 1)
    fields = entry.ids, entry.shift, entry.inv, entry.split
    variants = []
    for at in (block_at, passed_at):
        w = list(word)
        w[at] = pool.rank if w[at] != pool.rank else 1
        variants.append((w, entry, offset))
    variants.append((word[:max(positions) + L], entry, offset))
    variants.append((word, entry, offset - min(positions) - 1))
    start = entry.positions.start
    for other in (range(start, start + 2 * k * step, 2 * step), entry.positions[:-1]):
        variants.append((word, engine.Transport(other, *fields), offset))
    for w, e, at in variants:
        kept = list(w)
        assert not engine._apply_transport(w, e, pool, at)
        assert w == kept
        got = _replay_verdict(PSequence(pool, tuple(w), segments=[(None, e, at)]))
        assert got == _replay_verdict(PSequence(pool, tuple(w), list(e.at(at))))
        if w != word:
            assert type(got[0]) is str


class _NamingPool(engine.RelatorPool):
    """A relator pool that adds the nested commutator of each chain it is
    asked for, as a chain context does."""

    def _name(self, chain) -> int:
        self.relators.append(nested_commutator(chain))
        return len(self.relators) - 1


@pytest.mark.parametrize("right", [True, False])
def test_an_entry_on_a_long_relator_is_expanded(right, monkeypatch):
    # a 46-letter block: each swap relator [t, W] has 94 letters, past
    # MAX_CACHED_RELATOR, so no template has a swap table and the kernel
    # leaves the entry to apply_moves, one swap at a time
    chain, letters = (1, 2, 1, 2, 1), [3, -1, 2, 3]
    block = list(nested_commutator(chain))
    pool = _NamingPool([], 3)
    b = SequenceBuilder(pool, block + letters if right else letters + block)
    b.transport(chain, 0 if right else 4, 4 if right else 0, 1, right)
    assert b.word == (letters + block if right else block + letters)
    moves = b.moves
    assert len(pool.relators[moves[0][2]]) > engine.MAX_CACHED_RELATOR
    entry = engine.Transport(range(moves[0][1], moves[-1][1] + (1 if right else -1),
                                   1 if right else -1),
                             tuple(m[2] for m in moves), *moves[0][3:])
    assert list(entry) == moves
    applied = []
    kernel = engine._apply_transport

    def spy(*args):
        applied.append(kernel(*args))
        return applied[-1]

    monkeypatch.setattr(engine, "_apply_transport", spy)
    seq = PSequence(pool, b.initial, entry)
    assert replay(seq) == replay(PSequence(pool, b.initial, moves))
    assert replay(seq)[1] == tuple(b.word)
    assert applied == [False, False]


# -- swap runs: a batch against the same moves one per kernel call ----------


def _as_one_batch(pres, initial, moves, offset=0):
    word = list(initial)
    try:
        area, fl = apply_moves(word, moves, pres, offset)
    except NotApplicable as exc:
        return "refused", exc.move_index, exc.reason, word
    return "ok", area, fl, word


def _same_as_one_per_call(pres, initial, moves):
    # the reference runs first, so every template the batch meets is cached
    expected = one_move_per_call(pres, initial, moves)
    assert _as_one_batch(pres, initial, moves) == expected
    return expected


def _in_a_run(moves) -> list:
    """Indices of the ``ar`` moves one position away from an ``ar`` move
    before them."""
    return [i for i in range(1, len(moves))
            if moves[i][0] == moves[i - 1][0] == "ar"
            and abs(moves[i][1] - moves[i - 1][1]) == 1]


def _mutated(move, field: int, rng):
    if field == 0:      # the kind: the same fields read as another move
        return (rng.choice(("fr", "fe", "xx")),) + move[1:]
    if field == 4:
        return move[:4] + (1 - move[4],) + move[5:]
    return move[:field] + (move[field] + rng.choice((-1, 1)),) + move[field + 1:]


@pytest.fixture(scope="module")
def run_sequences():
    """A class-3 compression (left runs of a 10-letter block) and a c = 3
    fill (left and right runs of single-letter blocks), with the word
    before each move."""
    from nilfill.compression import power_compression_sequence

    cpres = build_chain_presentation(3, 1)
    fpres = build_filler_presentation(3, 2)
    w = fpres.parse_word("x1 x2 g121 g222^-1 g121^-1 g222 x2^-1 x1^-1")
    out = []
    for pres, seq in ((cpres, power_compression_sequence(cpres, (1, 2, 3), 3)),
                      (fpres, fill(w, fpres))):
        moves, word, words = seq.moves, list(seq.initial), []
        for mv in moves:
            words.append(tuple(word))
            apply_moves(word, [mv], pres)
        out.append((pres, seq.initial, moves, words))
    return out


def test_a_batch_of_runs_equals_one_move_per_call(run_sequences):
    steps = []
    for pres, initial, moves, _ in run_sequences:
        assert _same_as_one_per_call(pres, initial, moves)[0] == "ok"
        runs = _in_a_run(moves)
        steps.append({moves[i][1] - moves[i - 1][1] for i in runs})
        assert len(runs) > len(moves) / 4
    assert steps == [{-1}, {-1, 1}]


@pytest.mark.parametrize("seed", range(4))
def test_a_mutated_move_in_a_run_is_refused_as_one_per_call(run_sequences, seed):
    rng = random.Random(seed)
    refused = 0
    for pres, _, moves, words in run_sequences:
        sites = _in_a_run(moves)
        for _ in range(250):
            i = rng.choice(sites)
            start = max(0, i - rng.randrange(1, 40))
            window = list(moves[start:i + rng.randrange(1, 40)])
            window[i - start] = _mutated(window[i - start], rng.randrange(6), rng)
            refused += _same_as_one_per_call(pres, words[start], window)[0] == "refused"
    assert refused > 400


def _transport(pres, chain, letters, right: bool):
    """The word and the moves of one block move on ``pres``: the block of
    ``chain`` left from past ``letters`` to position 0, or right from 0 to
    the word's end."""
    from nilfill.compression import BlockMover
    from nilfill.words import nested_commutator

    W, letters = list(nested_commutator(chain)), list(letters)
    b = SequenceBuilder(pres, W + letters if right else letters + W)
    mover = BlockMover(chain)
    if right:
        mover.move_right(b, 0, len(letters), 1)
    else:
        mover.move_left(b, len(letters), 0, 1)
    assert b.word == (letters + W if right else W + letters)
    return b.initial, b.moves


@pytest.mark.parametrize("right", (False, True))
@pytest.mark.parametrize("single", (False, True))
def test_a_run_reaches_the_word_end_and_stops_there(right, single):
    # a run to position 0 or to the word's end, and one swap more, whose
    # letter is in the word (at its other end, where a negative index or a
    # range test off by one would read it)
    if single:      # a central letter
        pres = build_filler_presentation(3, 2)
        chain = (pres.letters_of_weight(3)[0],)
    else:
        pres, chain = build_chain_presentation(3, 1), (1, 2, 3)
    letters = (1, 2, -1, 2, 1)
    initial, moves = _transport(pres, chain, letters, right)
    assert len(moves) == len(letters) and all(m[0] == "ar" for m in moves)
    assert _same_as_one_per_call(pres, initial, moves)[:3] == ("ok", len(moves), len(initial))
    step = 1 if right else -1
    past = ("ar", moves[-1][1] + step) + moves[-1 if right else 0][2:]
    result = _same_as_one_per_call(pres, initial, moves + [past])
    assert result[:2] == ("refused", len(moves))


@pytest.mark.parametrize("right", (False, True))
def test_a_run_ends_at_a_swap_of_another_letter_or_block(right):
    # [t', W] passes another letter than the word holds; [t, W'] moves
    # another block of the same length past the same letter
    pres = build_chain_presentation(3, 1)
    chain, letters = (1, 2, 3), (1, 2, -1, 3, 1, -2)
    initial, moves = _transport(pres, chain, letters, right)
    k = 3
    t = letters[k] if right else letters[::-1][k]
    for swap in ((-t,) + chain, (t, 2, 1, 3)):
        bad = list(moves)
        bad[k] = bad[k][:2] + (pres.relator_id(swap),) + bad[k][3:]
        result = _same_as_one_per_call(pres, initial, bad)
        assert result[:3] == ("refused", k, f"word does not carry relator prefix at {bad[k][1]}")


def _swap(pres, a, b):
    """The fields after the position of an application of ``pres`` that
    turns a b into b a."""
    for rid, r in enumerate(pres.relators):
        for inv in (0, 1):
            rv = inverse_word(r) if inv else r
            for shift in range(len(r)):
                if rv[shift:] + rv[:shift] == (a, b, -a, -b):
                    return rid, shift, inv, 2
    raise AssertionError(f"no swap of {a} and {b}")


@pytest.mark.parametrize("initial,positions,past,fresh", [
    # a single-letter swap reads both ways: the swap at p moves z left past
    # 1, and the one at p + 1 continues it as 1 moving right past y
    pytest.param((1, "z", "y"), (0, 1), None, False, id="left-then-right"),
    pytest.param(("z", "y", 1), (1, 0), None, False, id="right-then-left"),
    pytest.param((1, 2, -1, 2, "z"), (3, 2, 1, 0), None, False, id="left-end-to-0"),
    pytest.param(("z", 1, 2, -1, 2), (0, 1, 2, 3), None, False, id="right-0-to-end"),
    # then one swap past the word, of the letter at its other end
    pytest.param((1, 2, -1, 2, "z"), (3, 2, 1, 0), -1, False, id="left-past-0"),
    pytest.param(("z", 1, 2, -1, 2), (0, 1, 2, 3), 4, False, id="right-past-end"),
    # on a fresh presentation the run meets templates not yet cached
    pytest.param(("z", 1, 2, -1, 2, 1), (0, 1, 2, 3, 4), None, True, id="uncached"),
    pytest.param((1, 2, -2, 1, -1, "z"), (4, 3, 2, 1, 0), None, True, id="uncached-left"),
])
@pytest.mark.parametrize("offset", (0, -3))
def test_one_run_loop_serves_both_directions(initial, positions, past, fresh, offset,
                                             monkeypatch):
    run, continued = engine._continue_run, []

    def counted(*args):
        continued.append(run(*args))
        return continued[-1]

    monkeypatch.setattr(engine, "_continue_run", counted)
    pres = build_filler_presentation(3, 2)
    z, y = pres.letters_of_weight(3)[:2]
    start = tuple({"z": z, "y": y}.get(a, a) for a in initial)
    word, moves = list(start), []
    for p in positions:
        moves.append(("ar", p) + _swap(pres, word[p], word[p + 1]))
        word[p:p + 2] = word[p + 1], word[p]
    if past is not None:
        moves.append(("ar", past) + _swap(pres, word[-1], word[0]))
    given = engine._shifted(moves, -offset)     # the kernel shifts them back
    if fresh:
        pres = Presentation(pres.names, pres.weights, pres.relators, pres.nclass, pres.parents)
        result = _as_one_batch(pres, start, given, offset)
        assert result == one_move_per_call(pres, start, moves)
        # an uncached template ends a run, and a later cached one starts one
        assert 0 < sum(continued) < len(positions) - 1
    else:
        result = one_move_per_call(pres, start, moves)
        assert _as_one_batch(pres, start, given, offset) == result
        assert sum(continued) == len(positions) - 1   # every swap after the first
    if past is None:
        assert result == ("ok", len(positions), len(start), word)
    else:
        assert result == ("refused", len(positions),
                          f"relator application at {past} out of range", word)


def test_a_run_that_switches_to_an_equal_relator_under_another_id(monkeypatch):
    # relators 2 and 3 repeat relators 0 and 1 (z past x1, z past x2): a
    # run of z switching to the second ids ends at the first uncached key,
    # which the main loop accepts; once every key is cached, the equal
    # blocks share one swap table and the run goes through the switch
    run, continued = engine._continue_run, []

    def counted(*args):
        continued.append(run(*args))
        return continued[-1]

    monkeypatch.setattr(engine, "_continue_run", counted)
    swaps = [(1, 3, -1, -3), (2, 3, -2, -3)]
    pres = Presentation(["x1", "x2", "z"], [1, 1, 2], swaps * 2, 2)
    start = (1, 2, 1, 2, 3)
    moves = [("ar", 3, 1, 0, 0, 2), ("ar", 2, 0, 0, 0, 2),
             ("ar", 1, 3, 0, 0, 2), ("ar", 0, 2, 0, 0, 2)]
    apply_moves([1, 2, 3], moves[:2], pres, -2)     # caches ids 0 and 1
    continued.clear()
    expected = ("ok", 4, 5, [3, 1, 2, 1, 2])
    assert _as_one_batch(pres, start, moves) == expected
    assert continued == [1, 0]
    continued.clear()
    assert _as_one_batch(pres, start, moves) == expected
    assert continued == [3]
    assert one_move_per_call(pres, start, moves) == expected
    assert len(pres._swap_tables) == 3     # z left; x1 and x2 right past z


def _swap_side(u, v):
    """The side a template's u -> v moves its block, or None."""
    if len(u) == len(v) > 1:
        if u == v[-1:] + v[:-1]:
            return "left"
        if u == v[1:] + v[:1]:
            return "right"
    return None


def test_swap_tables_hold_exactly_the_cached_swaps(monkeypatch):
    # after c = 3 fills and a class-3 compression on fresh pools, each key
    # of a table names a cached template that swaps the table's block that
    # way past the table's letter, and each cached swap is in its table
    from nilfill.compression import power_compression_sequence
    from nilfill.corpus import corpus_generate

    build, pools = engine._template, {}

    def seen(pres, key, index):
        pools[id(pres)] = pres
        return build(pres, key, index)

    monkeypatch.setattr(engine, "_template", seen)
    f, c = build_filler_presentation(3, 2), build_chain_presentation(3, 1)
    fpres = Presentation(f.names, f.weights, f.relators, f.nclass, f.parents)
    cpres = Presentation(c.names, c.weights, c.relators, c.nclass)
    for w in corpus_generate(fpres, 12, 2, seed=5):
        validate_null(fill(w, fpres))
    replay(power_compression_sequence(cpres, (1, 2, 3), 3))
    assert len(pools) > 2
    sides = {"left": 3, "right": 4}
    swaps = 0
    for pool in pools.values():
        for (side, *block), pair in pool._swap_tables.items():
            assert pair[0] == block and pair[1]
            for key, letter in pair[1].items():
                t = pool._move_templates[key]
                assert t[sides[side]] is pair
                assert t[:2] == (([letter] + block, block + [letter]) if side == "left"
                                 else (block + [letter], [letter] + block))
        for key, t in pool._move_templates.items():
            side = _swap_side(t[0], t[1])
            for name, slot in sides.items():
                if name == side or (side and len(t[0]) == 2):
                    block = t[1][:-1] if name == "left" else t[1][1:]
                    assert t[slot] is pool._swap_tables[(name, *block)]
                    assert key in t[slot][1]
                    swaps += 1
                else:
                    assert t[slot] is None
    assert swaps > 100


@pytest.mark.parametrize("extra", (0, 1))
def test_a_template_is_cached_only_for_a_short_relator(extra):
    # a relator one letter past the limit is applied from a template built
    # per move, with the verdict a cached template gives
    n = engine.MAX_CACHED_RELATOR + extra
    pres = Presentation(["x1", "x2"], [1, 1], [((1, 2, -1, -2) * n)[:n]], 2)
    insert, delete = ("ar", 0, 0, 0, 0, 0), ("ar", 0, 0, 0, 1, n)
    seq = PSequence(pres, (), [insert, delete] * 2)
    assert validate_null(seq) == engine.Metrics(4, n, 4, 0)
    assert sorted(pres._move_templates) == ([] if extra else sorted([insert[2:], delete[2:]]))
    with pytest.raises(NotApplicable, match="word does not carry relator prefix at 0"):
        replay(PSequence(pres, (), [insert, ("ar", 0, 0, 1, 1, n)]))


def test_a_long_relator_template_is_cut_from_the_relator_and_its_inverse():
    # every key of two 70-letter relators, each key read against the
    # rotation formula; the pool keeps the last long relator it used
    n = 70
    r0 = tuple((i * 7 % 5 + 1) * (-1) ** (i // 3) for i in range(n))
    r1 = tuple(-a for a in reversed(r0[5:] + r0[:5]))
    pres = Presentation([f"x{i}" for i in range(1, 6)], [1] * 5, [r0, r1], 2)
    for rid in (0, 1, 0):
        r = pres.relators[rid]
        for shift in range(n):
            for inv in (0, 1):
                rv = inverse_word(r) if inv else r
                rot = rv[shift:] + rv[:shift]
                for split in range(n + 1):
                    u, v = list(rot[:split]), list(inverse_word(rot[split:]))
                    key = (rid, shift, inv, split)
                    assert engine._template(pres, key, 0) == (u, v, n - 2 * split, None, None)
        assert pres._last_relator == (rid, list(r), list(inverse_word(r)))
    assert pres._move_templates == {}


def _fresh_pool(name):
    """A pool of its own whose relators are those of ``name``: the chain
    presentation P_1 of class 2, every seventh relator of the class-3
    filler presentation on two letters, or a chain context that has named
    the commutators of its subchains with every signed letter."""
    if name == "chain-2-1":
        p = build_chain_presentation(2, 1)
        return Presentation(p.names, p.weights, p.relators, p.nclass)
    if name == "filler-3-2":
        p = build_filler_presentation(3, 2)
        return Presentation(p.names, p.weights, p.relators[::7], p.nclass, p.parents)
    ctx = ChainContext(build_chain_presentation(3, 1), (1, 2, 3))
    for chain in ((3,), (2, 3), (1, 2, 3)):
        for t in (1, -1, 2, -2, 3, -3):
            ctx.relator_id((t,) + chain)
    return ctx


@pytest.mark.parametrize("name", ("chain-2-1", "filler-3-2", "context"))
def test_every_template_is_cut_by_the_rotation_formula(name):
    # every key of every relator of a fresh pool, short relators whose
    # templates are cached, read against u = r'[:split] and
    # v = (r'[split:])^-1 for the rotation r' of the relator read
    pool = _fresh_pool(name)
    assert pool.relators and pool._move_templates == {}
    for rid, r in enumerate(pool.relators):
        n = len(r)
        assert n <= engine.MAX_CACHED_RELATOR
        for shift in range(n):
            for inv in (0, 1):
                rv = inverse_word(r) if inv else r
                rot = rv[shift:] + rv[:shift]
                for split in range(n + 1):
                    u, v = list(rot[:split]), list(inverse_word(rot[split:]))
                    key = (rid, shift, inv, split)
                    assert engine._template(pool, key, 0)[:3] == (u, v, n - 2 * split)
                    assert pool._move_templates[key][:2] == (u, v)
        assert pool._last_relator == (rid, list(r), list(inverse_word(r)))


def test_each_pool_keeps_a_relator_id_by_block_chain_and_letter():
    # a presentation looks the relator up, a chain context adds it; both
    # keep the id at _transport_ids[chain[1:]][chain[0]], and a relator the
    # presentation lacks raises and is kept nowhere
    pres, ctx = _fresh_pool("chain-2-1"), _fresh_pool("context")
    for pool, chains in ((pres, [(1, 1, 2), (-2, 1, 2)]), (ctx, [(1, 2, 1), (-3, 3)])):
        for chain in chains:
            rid = pool.relator_id(chain)
            assert pool.relators[rid] == nested_commutator(chain)
            assert pool._transport_ids[chain[1:]][chain[0]] == rid
            assert pool.relator_id(chain) == rid
    named = len(ctx.relators)
    ctx.relator_id((2, 1, 2, 1))
    assert len(ctx.relators) == named + 1 and ctx.chains[-1] == (2, 1, 2, 1)
    tables = {chain: dict(ids) for chain, ids in pres._transport_ids.items()}
    with pytest.raises(NoTransportRelator):
        pres.relator_id((1, 1, 2, 2))
    assert pres._transport_ids == tables


def test_the_kernel_imports_only_errors_and_words():
    # the kernel is the bottom layer: the pools it checks moves on are its
    # own ``RelatorPool`` subclasses, and it imports no module that does
    tree = ast.parse(pathlib.Path(engine.__file__).read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names if alias.name.startswith("nilfill")}
    assert imported == {"errors", "words"}
