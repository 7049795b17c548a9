"""Acceptance suite: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines;
criterion 3 has a second test, which pins its exact cost laws.
All tolerances are fixed here; the theory only asserts that the constants
exist, so each ceiling was measured on this implementation and frozen
with headroom.
"""

import itertools
import random
from fractions import Fraction

import pytest
from helpers import increment_sequence, longest_relator, random_valid_sequence, witt_number

from nilfill import oracle
from nilfill.bench import bench_compression, bench_fill, fit_exponent
from nilfill.compression import compression_word, power_compression_sequence
from nilfill.corpus import corpus_generate
from nilfill.engine import replay, validate_null, normalize_insertions
from nilfill.filler import fill_with_report
from nilfill.presentations import (
    build_chain_presentation,
    build_filler_presentation,
)
from nilfill.words import free_reduce, inverse_word, nested_commutator

# frozen tolerances (measured constants, rounded up with headroom)
KAPPA = {1: 1.0, 2: 16.0, 3: 48.0}
FL_SURPLUS = {1: 1.0, 2: 8.0, 3: 24.0}
SLOPE_WINDOW = {2: (2.6, 3.2), 3: (3.4, 4.3)}
LAMBDA_CEIL = {2: 12.0, 3: 80.0}

# exact cost laws of the power compression z_1^(n^c) -> [a_1^n, ..., a_c^n],
# measured on this implementation and the same for every ordering of the
# chain letters: area and height are polynomials in n of degree c + 1, and
# FL exceeds the starting length |z_1| n^c by (2^c - 2)(n + 3)
AREA_LAW = {
    2: lambda n: 2 * n**2 * (n + 1),
    3: lambda n: Fraction(n**2 * (5 * n + 3) * (8 * n + 7), 2),
    4: lambda n: Fraction(1974 * n**5 + 6101 * n**4 + 6354 * n**3 + 2155 * n**2, 6),
}
HEIGHT_LAW = {
    2: lambda n: 2 * n**3 + 8 * n**2 + 2 * n,
    3: lambda n: 20 * n**4 + Fraction(169, 2) * n**3 + Fraction(133, 2) * n**2 + 5 * n,
}
LAW_GRID = {2: range(2, 11), 3: range(2, 7), 4: range(2, 3)}

COMPRESSION_GRID = [(c, n) for c in (1, 2, 3) for n in (2, 3, 4)]


def _announce(num, text):
    print(f"PASS criterion {num}: {text}")


def chain_setup(c):
    pres = build_chain_presentation(c, 1)
    return pres, tuple(range(1, c + 1))


def valuation(v, n):
    k = 0
    while v % n == 0:
        v //= n
        k += 1
    return k


@pytest.fixture(scope="module")
def fill_cells():
    """Shared fill corpora for criteria 4 and 9 (doubled for stability)."""
    cells = {}
    for c, budget in ((2, 40), (3, 16)):
        records, cert, reports = bench_fill(c, 2, budget, 100, seed=7, timing=False)
        records2, cert2, reports2 = bench_fill(c, 2, budget, 200, seed=7, timing=False)
        cells[c] = (records + records2, cert, cert2, reports + reports2)
    return cells


def test_criterion_1_compression_correctness():
    checked = 0
    for c, n in COMPRESSION_GRID:
        pres, chain = chain_setup(c)
        z1 = nested_commutator(chain)
        for s in range(n**c + 1):
            w = compression_word(pres, chain, n, s)
            assert pres.is_identity(w + inverse_word(z1 * s)), (c, n, s)
            checked += 1
    _announce(1, f"compression words equal z1^s on the oracle ({checked} cases)")


def test_criterion_2_increment_bounds():
    for c, n in COMPRESSION_GRID:
        pres, chain = chain_setup(c)
        z1 = nested_commutator(chain)
        kappa = KAPPA[c]
        for s in range(n**c):
            seq = increment_sequence(pres, chain, n, s)
            metrics, final = replay(seq)
            assert seq.initial == z1 + compression_word(pres, chain, n, s)
            assert final == compression_word(pres, chain, n, s + 1)
            k = valuation(s + 1, n)
            assert metrics.area <= kappa * n ** (k + 1), (c, n, s, metrics.area)
            assert metrics.fl <= kappa * n, (c, n, s, metrics.fl)
    _announce(2, f"increment area within kappa*n^(k+1), FL within kappa*n "
                 f"(kappa = {KAPPA})")


def test_criterion_3_power_compression_scaling():
    ranges = {2: range(2, 11), 3: range(2, 6)}
    for c, n_range in ranges.items():
        records, fit = bench_compression(c, n_range, timing=False)
        assert fit is not None
        lo, hi = SLOPE_WINDOW[c]
        assert lo <= fit.slope <= hi, (c, fit.slope)
        surplus = max((r.fl - r.len_initial) / r.n for r in records)
        assert surplus <= FL_SURPLUS[c], (c, surplus)
    # class 1 compresses without any relator application
    records, fit = bench_compression(1, range(2, 7), timing=False)
    assert all(r.area == 0 for r in records)
    _announce(3, "fitted area exponents inside the windows, "
                 "filling-length surplus linear")


@pytest.mark.parametrize("c", sorted(LAW_GRID))
def test_criterion_3_exact_compression_laws(c):
    pres = build_chain_presentation(c, 1)
    for chain in itertools.permutations(range(1, c + 1)):
        lz = len(nested_commutator(chain))
        for n in LAW_GRID[c]:
            m = power_compression_sequence(pres, chain, n).metrics
            assert m.area == AREA_LAW[c](n), (chain, n, m.area)
            if c in HEIGHT_LAW:
                assert m.height == HEIGHT_LAW[c](n), (chain, n, m.height)
            assert m.fl - lz * n**c == (2**c - 2) * (n + 3), (chain, n, m.fl)
    _announce(3, f"exact area, height and FL laws at class {c} for every "
                 f"chain ordering up to n = {LAW_GRID[c][-1]}")


def test_criterion_4_filler_soundness_and_bounds(fill_cells):
    for c, (records, cert, cert2, _) in fill_cells.items():
        assert cert.count >= 100
        assert cert2.count >= 200
        # every trace already passed null-validation inside bench_fill
        assert cert.lam <= LAMBDA_CEIL[c], (c, cert.lam)
        assert cert2.lam <= LAMBDA_CEIL[c], (c, cert2.lam)
        ratio = cert2.lam / cert.lam if cert.lam else 1.0
        assert 0.5 <= ratio <= 2.0, (c, ratio)
    _announce(4, "fill certificates valid; lambda within ceilings and stable "
                 "under corpus doubling")


def test_criterion_5_base_case():
    pres = build_filler_presentation(1, 2)
    words = corpus_generate(pres, 30, 150, seed=11)
    assert len(words) >= 100
    for w in words:
        seq, _ = fill_with_report(w, pres)
        metrics = validate_null(seq)
        assert metrics.area <= len(w) ** 2, w
        assert metrics.fl <= len(w) + longest_relator(pres), w
    _announce(5, f"abelian base case fills {len(words)} words within "
                 "(len^2, len + C)")


def test_criterion_6_insertion_normalization():
    pres = build_chain_presentation(2, 1)
    rng = random.Random(23)
    for _ in range(1000):
        seq = random_valid_sequence(pres, rng, steps=10)
        m0, end0 = replay(seq)
        norm = normalize_insertions(seq)
        m1, end1 = replay(norm)
        assert m1.area == m0.area
        assert m1.fl <= m0.fl + longest_relator(pres)
        assert end1 == end0 and norm.initial == seq.initial
        assert all(mv[5] == 0 for mv in norm.moves if mv[0] == "ar")
    _announce(6, "1000 fuzzed traces: normalization preserves area, "
                 "FL grows by at most C")


def test_criterion_7_area_le_height(fill_cells):
    pres = build_chain_presentation(2, 1)
    rng = random.Random(29)
    for _ in range(300):
        seq = random_valid_sequence(pres, rng)
        m, _ = replay(seq)
        assert m.area <= m.height
    for c, (records, _, _, _) in fill_cells.items():
        assert all(r.area <= r.height for r in records)
    for c in (1, 2, 3):
        records, _ = bench_compression(c, range(2, 5), timing=False)
        assert all(r.area <= r.height for r in records)
    _announce(7, "area <= height on every validated sequence and benchmark")


def test_criterion_8_oracle_self_consistency():
    presentations = [build_chain_presentation(c, k)
                     for c in (1, 2, 3, 4) for k in range(1, c + 1)]
    presentations += [build_filler_presentation(c, 2) for c in (1, 2, 3, 4)]
    presentations += [build_filler_presentation(c, 3) for c in (1, 2)]
    total = 0
    for pres in presentations:
        for r in pres.relators:
            assert pres.is_identity(r)
        total += len(pres.relators)

    rng = random.Random(31)
    for _ in range(1000):
        m = rng.choice((2, 3))
        c = rng.choice((2, 3))
        letters = [s for i in range(1, m + 1) for s in (i, -i)]
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(16)))
        assert oracle.eval_word(free_reduce(w), m, c) == oracle.eval_word(w, m, c)

    for m in (1, 2, 3):
        for c in (1, 2, 3, 4):
            assert len(oracle.lyndon_words(m, c)) == witt_number(m, c)
    _announce(8, f"{total} relators are oracle identities; evaluation commutes "
                 "with free reduction; Lyndon ranks match Witt numbers")


def test_criterion_9_register_bound(fill_cells):
    checked = 0
    for c, (_, _, _, reports) in fill_cells.items():
        for rep in reports:
            # 2*M*Area(inner) plus the letters already present in the input;
            # every fill asserts this bound before it returns (``_FillRun.execute``)
            assert rep.max_register <= rep.register_bound, (c, rep)
            checked += 1
    _announce(9, f"register growth within 2*M*Area + 2*initial on "
                 f"{checked} fills, zero violations")
