import random

import pytest
from helpers import fill, longest_relator, record_moves, witt_number

from nilfill.compression import ChainContext
from nilfill.corpus import corpus_generate
from nilfill.engine import replay, validate_null
from nilfill.errors import NotNullHomotopic
from nilfill.engine import apply_moves
from nilfill.filler import certify_afl_pair, fill_with_report
from nilfill.presentations import Presentation, build_filler_presentation, weight_c_basis
from nilfill.words import inverse_word, nested_commutator


@pytest.fixture(scope="module")
def p1():
    return build_filler_presentation(1, 2)


@pytest.fixture(scope="module")
def p2():
    return build_filler_presentation(2, 2)


@pytest.fixture(scope="module")
def p3():
    return build_filler_presentation(3, 2)


def test_select_basis_c2(p2):
    basis, rewrite, _ = weight_c_basis(p2)
    assert [p2.names[z - 1] for z in basis] == ["g12"]
    names = {p2.names[i - 1]: v for i, v in rewrite.items()}
    g12 = p2.name_to_index["g12"]
    assert names["g11"] == ()
    assert names["g22"] == ()
    assert names["g21"] == (-g12,)


def test_select_basis_c1_degenerate(p1):
    basis, rewrite, _ = weight_c_basis(p1)
    assert basis == [1, 2]
    assert rewrite == {}


def test_select_basis_c3_rank(p3):
    basis, _, _ = weight_c_basis(p3)
    assert len(basis) == witt_number(2, 3) == 2


def test_project_word(p2):
    g12 = p2.name_to_index["g12"]
    assert p2.project_word((g12,) * 5) == ()
    w = nested_commutator([(1, 1), (2, 2)]) + (-g12,) * 4
    assert p2.project_word(w) == nested_commutator([(1, 1), (2, 2)])


def test_fill_empty_word(p2):
    seq = fill((), p2)
    assert seq.moves == []
    assert validate_null(seq).area == 0


def test_fill_rejects_nontrivial(p2):
    with pytest.raises(NotNullHomotopic):
        fill((1,), p2)
    with pytest.raises(NotNullHomotopic):
        fill((-1, -2, 1, 2), p2)  # equals g12, nontrivial


def test_fill_every_relator_c2(p2):
    for rid, w in enumerate(p2.relators):
        seq, report = fill_with_report(w, p2)
        m = validate_null(seq)
        assert m.area <= m.height
        assert report.max_register <= report.register_bound, rid


def test_fill_relator_sample_c3(p3):
    rng = random.Random(3)
    rids = rng.sample([i for i, r in enumerate(p3.relators) if len(r) <= 12], 12)
    for rid in rids:
        w = p3.relators[rid]
        seq, report = fill_with_report(w, p3)
        validate_null(seq)
        assert report.max_register <= report.register_bound


def test_fill_abelian_base_case(p1):
    rng = random.Random(11)
    for _ in range(50):
        pieces = []
        for _ in range(rng.randrange(1, 4)):
            a = rng.choice([1, -1, 2, -2])
            b = rng.choice([1, -1, 2, -2])
            pieces.append((a, b, -a, -b))
        w = sum(pieces, ())
        if not p1.is_identity(w):
            continue
        seq, _ = fill_with_report(w, p1)
        m = validate_null(seq)
        assert m.area <= len(w) ** 2
        assert m.fl <= len(w) + longest_relator(p1)


def test_fill_commutator_power_family(p2):
    g12 = p2.name_to_index["g12"]
    for n in (2, 3, 5):
        w = nested_commutator([(1,) * n, (2,) * n]) + (-g12,) * (n * n)
        seq, report = fill_with_report(w, p2)
        m = validate_null(seq)
        assert m.area <= 40 * len(w) ** 3
        assert m.fl <= 40 * len(w)


def test_fill_intermediate_words_stay_trivial(p2):
    # every prefix of a fill sequence represents the same group element
    g12 = p2.name_to_index["g12"]
    r = (-g12, -1, -2, 1, 2)
    w = (2,) + r + (-2,) + inverse_word(r)  # conjugated relator times inverse
    w = (2, g12) + r + (-g12, -2) + r
    if not p2.is_identity(w):
        w = (2,) + r + (-2,) + r
    assert p2.is_identity(w)
    seq = fill(w, p2)
    word = list(seq.initial)
    checkpoints = max(1, len(seq.moves) // 17)
    for i, mv in enumerate(seq.moves):
        apply_moves(word, [mv], p2)
        if i % checkpoints == 0:
            assert p2.is_identity(tuple(word) + inverse_word(w))


def test_each_pool_keeps_the_transport_ids_of_its_blocks(p3):
    # a fresh copy, so that its pools hold only this test's tables
    pres = Presentation(p3.names, p3.weights, p3.relators, 3, p3.parents)
    w = pres.parse_word("x2^-1 g12^-1 g112^-1 x2^-1 x1 x2 x1^-1 x2^-1 "
                        "x1^-1 x2 x1 g12 x2")
    fill(w, pres)
    fill(inverse_word(w), pres)
    # a carrying increment on a context of its own, whose inner carry
    # moves blocks on the context
    ctx = ChainContext(pres, pres.defining_chain(pres.basis[0][0]))
    ctx.record(2, 3, False)
    levels = [pres]
    while levels[-1].nclass > 1:
        levels.append(levels[-1].quotient)
    pools = levels + [ctx] + [c for level in levels for c in level._chain_ctxs.values()]
    assert pres._transport_ids and ctx._transport_ids
    assert not any(hasattr(pool, "_movers") for pool in pools)
    # the presentations of the recursion and their chain contexts: each
    # table maps a block chain and a letter t to the id of [t, chain]
    for pool in pools:
        for chain, ids in pool._transport_ids.items():
            for t, rid in ids.items():
                assert pool.relators[rid] == nested_commutator((t,) + chain)


def test_register_memo_holds_only_records_that_move_letters(p3):
    # a fresh copy, so that its memos hold only this corpus's records: a
    # register asks for a record only at s = 0 and at the carrying s, and
    # every other absorption appends its z_1 word without one
    pres = Presentation(p3.names, p3.weights, p3.relators, 3, p3.parents)
    for w in corpus_generate(pres, 16, 12, 3):
        fill(w, pres)
    keys = []
    for level in (pres, pres.quotient):
        for ctx in level._chain_ctxs.values():
            for (n, s, mirrored), record in ctx.increments.items():
                keys.append((ctx.c, mirrored))
                assert record_moves(record), (ctx.chain, n, s, mirrored)
                assert s == 0 or s % n == n - 1, (ctx.chain, n, s)
    assert {(3, False), (3, True), (2, False), (2, True)} <= set(keys)


def test_fill_report_structure(p3):
    w = p3.relators[0]
    seq, report = fill_with_report(w, p3)
    assert report.nclass == 3
    assert report.inner is not None and report.inner.nclass == 2
    assert report.inner.inner is not None and report.inner.inner.nclass == 1
    assert report.register_bound >= report.max_register


def test_certify_afl_pair():
    from nilfill.engine import Metrics

    empty = certify_afl_pair([(0, Metrics(0, 0, 0, 0))], 2)
    assert empty.lam == 0.0
    results = [
        (4, Metrics(area=32, fl=8, height=40, final_length=0)),
        (10, Metrics(area=100, fl=20, height=150, final_length=0)),
    ]
    cert = certify_afl_pair(results, 2)
    assert cert.lam_area == pytest.approx(0.5)  # 32 / 4^3
    assert cert.lam_fl == pytest.approx(2.0)
    assert cert.lam == pytest.approx(2.0)
    assert cert.worst_area == (4, 32)
    assert cert.worst_fl == (4, 8) or cert.worst_fl == (10, 20)


def test_recursion_consistency(p3):
    # the embedded recursive sequence obeys the class-2 certificate ceiling
    rng = random.Random(41)
    rids = rng.sample([i for i, r in enumerate(p3.relators) if len(r) <= 12], 8)
    for rid in rids:
        w = p3.relators[rid]
        _, report = fill_with_report(w, p3)
        inner = report.inner
        assert inner.nclass == 2
        assert report.inner_area <= 12 * max(1, inner.length) ** 3


def test_fill_degenerate_single_generator():
    # class 2 on one generator is just Z; every weight-2 letter rewrites away
    pres = build_filler_presentation(2, 1)
    g11 = pres.name_to_index["g11"]
    for w in [(g11,), (g11, -g11), (1, g11, -1, -g11), (-g11, 1, -1)]:
        if not pres.is_identity(w):
            continue
        seq, _ = fill_with_report(w, pres)
        validate_null(seq)


def test_fill_definition_relator_class4():
    pres = build_filler_presentation(4, 2)
    w = next(r for r in pres.relators
             if len(r) == 5 and pres.weight_of(r[0]) == 4)  # a definition
    seq, report = fill_with_report(w, pres)
    m = validate_null(seq)
    assert report.max_register <= report.register_bound
