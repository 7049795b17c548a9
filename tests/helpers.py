"""Shared test utilities."""

from nilfill import compression
from nilfill.engine import (CheckedMoves, SequenceBuilder, apply_moves, iter_moves,
                            reduction_steps)
from nilfill.errors import NotApplicable, OutOfRange
from nilfill.filler import fill_with_report
from nilfill.oracle import SeriesContext
from nilfill.words import inverse_word


def fill(w, pres):
    """The null-sequence of ``fill_with_report``, without its report."""
    return fill_with_report(w, pres)[0]


def check_moves(pres, before, moves):
    """The record of ``moves`` run through the kernel on ``before``, made
    as ``ChainContext.record`` makes one: from a builder's parts."""
    b = SequenceBuilder(pres, before)
    b.extend(moves)
    return CheckedMoves(tuple(part for part, _ in b.segments if part), list(b.initial),
                        b.word, b.area, b.fl - len(b.initial))


def record_moves(record) -> list:
    """Every move of a record in order, as ``splice`` reads them."""
    return list(iter_moves([(record, 0)]))


def increment_sequence(pres, chain, n, s):
    """The increment from z_1 ztilde^s to ztilde^{s+1}, built on a fresh
    level-0 builder by the run a register record comes from."""
    ctx = compression.chain_context(pres, chain)
    b = SequenceBuilder(pres, ctx.z_words[0] + compression.compression_word(pres, chain, n, s))
    compression._run_increment(ctx, b, 0, n, s)
    return b.finish()


def insert_trivial_word(b, pos, w):
    """Free-expand a freely trivial word at pos (len(w)/2 expansions), as a
    register record does with ztilde^0 at s = 0."""
    steps = reduction_steps(w)
    if 2 * len(steps) != len(w):
        raise OutOfRange("word is not freely trivial")
    b.extend([("fe", pos + p, a) for p, a in reversed(steps)])


def longest_relator(pres) -> int:
    """Length of the presentation's longest relator (0 with no relators)."""
    return max(map(len, pres.relators), default=0)


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


def random_valid_sequence(pres, rng, start=None, steps=12):
    """Random walk over applicable moves, biased to exercise every kind."""
    letters = [s for i in range(1, pres.rank + 1) for s in (i, -i)]
    if start is None:
        start = tuple(rng.choice(letters) for _ in range(rng.randrange(6)))
    b = SequenceBuilder(pres, start)
    for _ in range(steps):
        kind = rng.random()
        w = b.word
        if kind < 0.3:
            sites = [i for i in range(len(w) - 1) if w[i] == -w[i + 1]]
            if sites:
                b.extend([("fr", rng.choice(sites))])
                continue
        if kind < 0.55:
            b.extend([("fe", rng.randrange(len(w) + 1), rng.choice(letters))])
            continue
        rid = rng.randrange(len(pres.relators))
        r = pres.relators[rid]
        n = len(r)
        shift, inv = rng.randrange(n), rng.randrange(2)
        split = rng.randrange(n + 1)
        rv = inverse_word(r) if inv else r
        rot = rv[shift:] + rv[:shift]
        u = list(rot[:split])
        hits = [i for i in range(len(w) - split + 1) if w[i:i + split] == u]
        if hits:
            b.extend([("ar", rng.choice(hits), rid, shift, inv, split)])
        else:
            b.extend([("ar", rng.randrange(len(w) + 1), rid, shift, inv, 0)])
    return b.finish()


def apply_move(w, move, pres):
    """The word w after one move (pure)."""
    word = list(w)
    apply_moves(word, [move], pres)
    return tuple(word)


def one_move_per_call(pres, initial, moves):
    """("ok", area, fl, word) of ``moves`` applied one per kernel call, or
    ("refused", index, reason, word) at the first refusal.  A one-move
    batch never continues a transport run, so this is the reference for a
    batch that does."""
    word, area, fl = list(initial), 0, len(initial)
    for i, move in enumerate(moves):
        try:
            a, f = apply_moves(word, [move], pres)
        except NotApplicable as exc:
            return "refused", i, exc.reason, word
        area += a
        fl = max(fl, f)
    return "ok", area, fl, word


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


def load_corpus(path, pres) -> list:
    """The words of a corpus file written by ``corpus.save_corpus``."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(pres.parse_word(line))
    return out
