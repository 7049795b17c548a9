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
from math import gcd

from .errors import NotInGammaC, OutOfRange
from .words import Word


# A context keeps a monomial for each coefficient: the coefficients and the
# monomials' letters together are at most this many (two symbols pass up to
# class 15, one up to class 1,412), so no class asked of the oracle can
# exhaust memory.
MAX_SERIES_TABLE = 10**6


@lru_cache(maxsize=None)
def series_context(m: int, c: int) -> "SeriesContext":
    return SeriesContext(m, c)


class SeriesContext:
    """Monomial tables for m symbols truncated at degree c."""

    def __init__(self, m: int, c: int):
        if m < 1 or c < 1:
            raise OutOfRange(f"need m >= 1 and c >= 1, got m={m}, c={c}")
        entries, layer = 0, 1
        for d in range(c + 1):
            entries += (d + 1) * layer
            if entries > MAX_SERIES_TABLE:
                raise OutOfRange(f"a series at m={m}, c={c} has more than {MAX_SERIES_TABLE} "
                                 "coefficients and monomial letters")
            layer *= m
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
        self.lyndon_index = [idx[w] for w in lyndon_words(m, c)]

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


def is_unit(vec: list[int]) -> bool:
    return vec[0] == 1 and not any(vec[1:])


def degree_slice(ctx: SeriesContext, vec: list[int], d: int) -> list[int]:
    lo = ctx.degree_start[d]
    hi = ctx.degree_start[d + 1] if d < ctx.c else ctx.size
    return vec[lo:hi]


# --- Lyndon words and the degree-c Lie component ---------------------------


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


def lie_coordinates(series: list[int], m: int, c: int) -> tuple:
    """Integer coordinates of an element of the c-th term of the lower
    central series, given its series (1 below degree c): the degree-c
    coefficients on the Lyndon-word monomials.

    The standard bracketing of a Lyndon word w has coefficient 1 on w and 0
    on every smaller Lyndon word, so these coordinates are a unimodular
    change of the coordinates on the Lyndon bracket basis.
    """
    ctx = series_context(m, c)
    if series[0] != 1:
        raise NotInGammaC("constant coefficient differs from 1")
    for d in range(1, c):
        if any(degree_slice(ctx, series, d)):
            raise NotInGammaC(f"nonzero coefficient in degree {d}")
    return tuple(series[i] for i in ctx.lyndon_index)


def solve_in_basis(target, basis_vectors):
    """Exact solve of sum x_i * basis_vectors[i] = target over the rationals.

    Returns the coefficients as Fractions, or None when the target lies
    outside the span.  Coefficients of dependent basis vectors that are not
    needed are 0.  The only elimination in the package: callers that need
    integers check the denominators themselves.  Elimination runs over the
    integers (rows cross-multiplied, each divided by its gcd); Fractions
    appear only in the returned solution.
    """
    k = len(basis_vectors)
    # augmented rows [basis coordinates..., target coordinate]
    rows = [[v[i] for v in basis_vectors] + [t] for i, t in enumerate(target)]
    pivots = []
    r = 0
    for col in range(k):
        pr = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pv = prow[col]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f:
                row = [pv * a - f * b for a, b in zip(row, prow)]
                g = gcd(*row)
                rows[i] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
        r += 1
    if any(row[k] for row in rows[r:]):
        return None
    sol = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        sol[col] = Fraction(rows[i][k], rows[i][col])
    return sol
