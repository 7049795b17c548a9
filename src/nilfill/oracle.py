"""Exact evaluation in the free nilpotent group of class c.

Ground truth for word identities: map each weight-1 generator x to the
series 1 + X in the free associative ring over the generators, truncated
at total degree c.  The map is faithful on the free nilpotent group of
class c, so a word is trivial there iff its series is 1.

Series are dense integer coefficient lists indexed by monomial.  All
arithmetic is exact (Python ints); coefficients of long words grow
polynomially and must never be clamped to machine width.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import NonIntegralDecomposition, NotInGammaC
from .words import Word


@lru_cache(maxsize=None)
def series_context(m: int, c: int) -> "SeriesContext":
    return SeriesContext(m, c)


class SeriesContext:
    """Monomial tables for m symbols truncated at degree c."""

    def __init__(self, m: int, c: int):
        if m < 1 or c < 1:
            raise ValueError("need m >= 1 and c >= 1")
        self.m = m
        self.c = c
        monomials: list[tuple] = [()]
        by_degree: list[list[tuple]] = [[()]]
        for _ in range(c):
            layer = [mono + (s,) for mono in by_degree[-1] for s in range(1, m + 1)]
            by_degree.append(layer)
            monomials.extend(layer)
        self.monomials = monomials
        self.index = {mono: i for i, mono in enumerate(monomials)}
        self.size = len(monomials)
        self.degree_start = [self.index[layer[0]] for layer in by_degree]
        # append_pairs[s]: (parent, child) with child = parent + (s,),
        # ascending child index (= ascending degree).
        idx = self.index
        self.append_pairs = [None] + [
            [(idx[mono], idx[mono + (s,)]) for mono in monomials if len(mono) < c]
            for s in range(1, m + 1)
        ]

    def unit(self) -> list[int]:
        vec = [0] * self.size
        vec[0] = 1
        return vec


def eval_word(w: Word, m: int, c: int) -> list[int]:
    """Series of a word over weight-1 symbols 1..m, truncated at degree c."""
    ctx = series_context(m, c)
    vec = ctx.unit()
    pairs_by_symbol = ctx.append_pairs
    for a in w:
        pairs = pairs_by_symbol[a if a > 0 else -a]
        if a > 0:
            for p, ch in reversed(pairs):
                vec[ch] += vec[p]
        else:
            for p, ch in pairs:
                vec[ch] -= vec[p]
    return vec


def series_mul(ctx: SeriesContext, a: list[int], b: list[int]) -> list[int]:
    """Full truncated product; slower than the letter loop of eval_word,
    which tests check against it."""
    out = [0] * ctx.size
    idx = ctx.index
    monos = ctx.monomials
    c = ctx.c
    for i, ai in enumerate(a):
        if not ai:
            continue
        mi = monos[i]
        room = c - len(mi)
        for j, bj in enumerate(b):
            if not bj:
                continue
            mj = monos[j]
            if len(mj) > room:
                continue
            out[idx[mi + mj]] += ai * bj
    return out


def is_unit(vec: list[int]) -> bool:
    return vec[0] == 1 and not any(vec[1:])


def is_identity(w: Word, m: int, c: int) -> bool:
    """True iff w = 1 in the free nilpotent group of class c on m generators."""
    return is_unit(eval_word(w, m, c))


def degree_slice(ctx: SeriesContext, vec: list[int], d: int) -> list[int]:
    lo = ctx.degree_start[d]
    hi = ctx.degree_start[d + 1] if d < ctx.c else ctx.size
    return vec[lo:hi]


# --- Lyndon words and the degree-c Lie component ---------------------------


def is_lyndon(w: tuple) -> bool:
    return len(w) > 0 and all(w < w[i:] + w[:i] for i in range(1, len(w)))


def lyndon_words(m: int, n: int) -> list[tuple]:
    """All Lyndon words of length exactly n over symbols 1..m (Duval)."""
    out = []
    w = [0]
    while w:
        w[-1] += 1
        k = len(w)
        if k == n:
            out.append(tuple(w))
        while len(w) < n:
            w.append(w[-k])
        while w and w[-1] == m:
            w.pop()
    return out


def standard_factorization(w: tuple) -> tuple:
    """Split a Lyndon word (length >= 2) as u.v with v the longest proper
    Lyndon suffix; (u, v) are both Lyndon."""
    for i in range(1, len(w)):
        if is_lyndon(w[i:]):
            return w[:i], w[i:]
    raise ValueError(f"{w!r} has no Lyndon factorization")


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            k = ma + mb
            out[k] = out.get(k, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _poly_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) - v
        if not out[k]:
            del out[k]
    return out


def bracket_polynomial(w: tuple) -> dict:
    """Standard bracketing of a Lyndon word as a homogeneous polynomial."""
    if len(w) == 1:
        return {w: 1}
    u, v = standard_factorization(w)
    pu, pv = bracket_polynomial(u), bracket_polynomial(v)
    return _poly_sub(_poly_mul(pu, pv), _poly_mul(pv, pu))


def witt_number(m: int, c: int) -> int:
    """Rank of the degree-c component of the free Lie ring on m symbols."""

    def mobius(n: int) -> int:
        mu, k = 1, 2
        while k * k <= n:
            if n % k == 0:
                n //= k
                if n % k == 0:
                    return 0
                mu = -mu
            k += 1
        if n > 1:
            mu = -mu
        return mu

    total = sum(mobius(d) * m ** (c // d) for d in range(1, c + 1) if c % d == 0)
    return total // c


class LyndonBasis:
    """Lyndon bracketings of length c: integer coordinates on the degree-c
    Lie component.  The monomial matrix is unitriangular in lex order,
    which is asserted at construction and used for coordinate extraction.
    """

    def __init__(self, m: int, c: int):
        self.m = m
        self.c = c
        self.words = sorted(lyndon_words(m, c))
        self.brackets = [bracket_polynomial(w) for w in self.words]
        for i, (w, poly) in enumerate(zip(self.words, self.brackets)):
            if poly.get(w) != 1:
                raise AssertionError(f"bracketing of {w} lacks unit diagonal")
            for earlier in self.words[:i]:
                if poly.get(earlier):
                    raise AssertionError(
                        f"bracketing of {w} hits smaller Lyndon word {earlier}"
                    )

    def __len__(self) -> int:
        return len(self.words)


def lyndon_basis(m: int, c: int) -> LyndonBasis:
    return _cached_basis(m, c)


@lru_cache(maxsize=None)
def _cached_basis(m: int, c: int) -> LyndonBasis:
    return LyndonBasis(m, c)


def weight_exponents(w: Word, basis: LyndonBasis) -> tuple:
    """Integer Lyndon coordinates of a word lying in the c-th term of the
    lower central series (series 1 below degree c)."""
    ctx = series_context(basis.m, basis.c)
    vec = eval_word(w, basis.m, basis.c)
    if vec[0] != 1:
        raise NotInGammaC("constant coefficient differs from 1")
    for d in range(1, basis.c):
        if any(degree_slice(ctx, vec, d)):
            raise NotInGammaC(f"nonzero coefficient in degree {d}")
    top = {
        ctx.monomials[i + ctx.degree_start[basis.c]]: coeff
        for i, coeff in enumerate(degree_slice(ctx, vec, basis.c))
        if coeff
    }
    coords = []
    for lw, poly in zip(basis.words, basis.brackets):
        a = top.get(lw, 0)
        coords.append(a)
        if a:
            top = _poly_sub(top, {k: a * v for k, v in poly.items()})
    if top:
        raise NonIntegralDecomposition(f"residue on monomials {sorted(top)[:3]}")
    return tuple(coords)


def solve_in_basis(target, basis_vectors):
    """Exact solve of sum x_i * basis_vectors[i] = target over the rationals.

    Returns the coefficients as Fractions, or None when the target lies
    outside the span.  Coefficients of dependent basis vectors that are not
    needed are 0.  The only elimination in the package: callers that need
    integers check the denominators themselves.
    """
    k = len(basis_vectors)
    # augmented rows [basis coordinates..., target coordinate]
    rows = [[Fraction(v[i]) for v in basis_vectors] + [Fraction(t)]
            for i, t in enumerate(target)]
    pivots = []
    r = 0
    for col in range(k):
        pr = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, rows[r])]
        pivots.append(col)
        r += 1
    if any(row[k] for row in rows[r:]):
        return None
    sol = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        sol[col] = rows[i][k]
    return sol
