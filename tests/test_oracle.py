import itertools
import random
from fractions import Fraction

import pytest
from helpers import series_mul, witt_number

from nilfill import oracle
from nilfill.errors import NotInGammaC
from nilfill.presentations import build_filler_presentation, weight_c_basis
from nilfill.words import free_reduce, inverse_word, nested_commutator


def brute_series(w, m, c):
    """Independent evaluator: multiply full truncated series symbol by symbol."""
    ctx = oracle.series_context(m, c)
    vec = ctx.unit()
    for a in w:
        s = abs(a)
        letter = [0] * ctx.size
        if a > 0:
            letter[0] = 1
            letter[ctx.index[(s,)]] = 1
        else:
            # 1 - X + X^2 - ... truncated
            sign = 1
            mono = ()
            for d in range(c + 1):
                letter[ctx.index[mono]] = sign
                mono = mono + (s,)
                sign = -sign
        vec = series_mul(ctx, vec, letter)
    return vec


def test_eval_empty_and_cancel():
    assert oracle.is_unit(oracle.eval_word((), 2, 3))
    assert oracle.is_unit(oracle.eval_word((1, -1), 2, 4))
    assert oracle.is_unit(oracle.eval_word((-2, 2), 2, 2))


def test_eval_commutator_degree2():
    # [x1, x2] at c=2 evaluates to 1 + X1X2 - X2X1 (independent expansion).
    ctx = oracle.series_context(2, 2)
    vec = oracle.eval_word((-1, -2, 1, 2), 2, 2)
    expected = ctx.unit()
    expected[ctx.index[(1, 2)]] = 1
    expected[ctx.index[(2, 1)]] = -1
    assert vec == expected
    assert not oracle.is_unit(oracle.eval_word((-1, -2, 1, 2), 2, 2))


def test_eval_matches_brute_force():
    rng = random.Random(5)
    for m, c in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for _ in range(25):
            w = tuple(
                rng.choice([s for i in range(1, m + 1) for s in (i, -i)])
                for _ in range(rng.randrange(12))
            )
            assert oracle.eval_word(w, m, c) == brute_series(w, m, c)


def test_homomorphism_and_free_reduction_invariance():
    rng = random.Random(9)
    ctx = oracle.series_context(2, 3)
    letters = [1, -1, 2, -2]
    for _ in range(60):
        u = tuple(rng.choice(letters) for _ in range(rng.randrange(10)))
        v = tuple(rng.choice(letters) for _ in range(rng.randrange(10)))
        pu = oracle.eval_word(u, 2, 3)
        pv = oracle.eval_word(v, 2, 3)
        assert oracle.eval_word(u + v, 2, 3) == series_mul(ctx, pu, pv)
        assert oracle.is_unit(oracle.eval_word(u + inverse_word(u), 2, 3))
        assert oracle.eval_word(free_reduce(u), 2, 3) == pu


def test_class_filtration():
    # A nested commutator of k weight-1 letters is trivial below degree k.
    for c in range(2, 5):
        for k in range(2, c + 1):
            w = nested_commutator([1 + (i % 2) for i in range(k)])
            vec = oracle.eval_word(w, 2, c)
            ctx = oracle.series_context(2, c)
            assert vec[0] == 1
            for d in range(1, k):
                assert not any(oracle.degree_slice(ctx, vec, d))
        # and a (c+1)-fold commutator is trivial at class c
        w = nested_commutator([1 + (i % 2) for i in range(c + 1)])
        assert oracle.is_unit(oracle.eval_word(w, 2, c))


def necklace_lyndon(m, n):
    """Brute-force Lyndon enumeration: minimal strict rotations."""
    out = []
    for w in itertools.product(range(1, m + 1), repeat=n):
        if all(w < w[i:] + w[:i] for i in range(1, n)):
            out.append(w)
    return out


@pytest.mark.parametrize("m,c", [(1, 2), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_lyndon_enumeration_and_witt(m, c):
    words = oracle.lyndon_words(m, c)
    assert sorted(words) == necklace_lyndon(m, c)
    assert len(words) == witt_number(m, c)


def test_lyndon_examples():
    assert sorted(oracle.lyndon_words(2, 2)) == [(1, 2)]
    assert sorted(oracle.lyndon_words(2, 3)) == [(1, 1, 2), (1, 2, 2)]
    assert oracle.lyndon_words(1, 2) == []
    assert witt_number(2, 3) == 2


def lie(w, m, c):
    """Weight exponents of a word: the Lie coordinates of its series."""
    return oracle.lie_coordinates(oracle.eval_word(w, m, c), m, c)


def test_weight_exponents_examples():
    assert lie((), 2, 2) == (0,)
    assert lie((-1, -2, 1, 2), 2, 2) == (1,)
    # powers of a central commutator scale linearly
    z = (-1, -2, 1, 2)
    for s in range(17):
        assert lie(z * s, 2, 2) == (s,)


def test_weight_exponents_rejects_low_degree():
    with pytest.raises(NotInGammaC):
        lie((1,), 2, 2)
    series = oracle.eval_word((), 2, 2)
    series[0] = 2
    with pytest.raises(NotInGammaC, match="constant coefficient differs from 1"):
        oracle.lie_coordinates(series, 2, 2)


def test_weight_exponents_at_class3():
    v = lie(nested_commutator([1, 1, 2]), 2, 3)
    assert len(v) == 2 and any(v)


@pytest.mark.parametrize("c,m", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
def test_lie_coordinates_faithful_with_index_one(c, m):
    # Every unit coordinate vector is an integer combination of the chosen
    # weight-c letters: the coordinates span the whole lattice, and the
    # basis has index 1 in it.
    chosen, _, vectors = weight_c_basis(build_filler_presentation(c, m))
    basis = [vectors[z] for z in chosen]
    assert len(basis) == witt_number(m, c)
    for j in range(len(basis)):
        unit = [int(i == j) for i in range(len(basis))]
        sol = oracle.solve_in_basis(unit, basis)
        assert sol is not None
        assert all(e.denominator == 1 for e in sol)


def test_solve_in_basis():
    assert oracle.solve_in_basis((3, 0), [(1, 0), (0, 1)]) == [3, 0]
    assert oracle.solve_in_basis((0, 0), [(1, 0), (0, 1)]) == [0, 0]
    # exact rationals: callers decide whether a fraction is acceptable
    assert oracle.solve_in_basis((1, 1), [(2, 0), (0, 1)]) == [Fraction(1, 2), 1]
    assert oracle.solve_in_basis((0, 1), [(1, 0)]) is None  # outside the span
    assert oracle.solve_in_basis((0, 0, 0), []) == []
    assert oracle.solve_in_basis((1, 0, 0), []) is None
    # antisymmetry of the degree-2 component, computed not assumed
    g12 = lie(nested_commutator([1, 2]), 2, 2)
    g21 = lie(nested_commutator([2, 1]), 2, 2)
    assert oracle.solve_in_basis(g21, [g12]) == [-1]


def test_solve_in_basis_dense_integer_basis():
    rng = random.Random(13)
    # dense rows whose last coordinate is the sum of the others
    basis = []
    for _ in range(4):
        head = [rng.randint(-9, 9) for _ in range(5)]
        basis.append(tuple(head + [sum(head)]))
    x = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(4)]
    target = [int(sum(xi * v[i] for xi, v in zip(x, basis)) * 420) for i in range(6)]

    def combine(sol, vectors):
        return [sum(e * v[i] for e, v in zip(sol, vectors)) for i in range(6)]

    sol = oracle.solve_in_basis(target, basis)
    assert all(isinstance(e, Fraction) for e in sol)
    assert combine(sol, basis) == target
    # a dependent vector among them: the solve still reproduces the target
    dependent = basis + [tuple(a - 2 * b for a, b in zip(basis[0], basis[1]))]
    assert combine(oracle.solve_in_basis(target, dependent), dependent) == target
    # a vector breaking the sum relation is outside the span
    assert oracle.solve_in_basis([1, 0, 0, 0, 0, 0], basis) is None
