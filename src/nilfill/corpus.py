"""Deterministic corpora of null-homotopic test words.

Two families: structured commutator-power identities (the compression
scenario: [a_1^j, ..., a_c^j] against the matching power of its weight-c
letter) and pseudo-random products of conjugated relators, freely reduced
and truncated to a length budget.  Every word is oracle-checked at
generation time, and a fixed seed reproduces the list bit for bit.
"""

from __future__ import annotations

import random

from .errors import OutOfRange
from .presentations import Presentation
from .words import Word, free_reduce, inverse_word, nested_commutator


def structured_words(pres: Presentation, budget: int) -> list:
    """Commutator-power identities that fit the length budget."""
    out = []
    if pres.nclass < 2:
        return out
    chosen, _, _ = pres.basis
    for z in chosen:
        chain = pres.defining_chain(z)
        j = 1
        while True:
            head = nested_commutator([(a,) * j for a in chain])
            w = head + (-z,) * (j ** len(chain))
            if len(w) > budget:
                break
            out.append(w)
            j += 1
    return out


def corpus_generate(pres: Presentation, n: int, count: int, seed: int) -> list:
    """``count`` null-homotopic words of length <= n (plus the structured
    family), reproducible for a fixed seed."""
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    if count < 0:
        raise OutOfRange(f"need count >= 0, got {count}")
    rng = random.Random(seed)
    words = [w for w in structured_words(pres, n)]
    letters = [s for i in range(1, pres.rank + 1) for s in (i, -i)]
    relators = pres.relators
    if len(words) < count and not relators:
        raise OutOfRange("presentation has no relators to draw words from")
    attempts = 0
    while len(words) < count and attempts < 200 * count:
        attempts += 1
        target = rng.randint(min(4, n), n)
        w: Word = ()
        while True:
            rid = rng.randrange(len(relators))
            r = relators[rid]
            if rng.random() < 0.5:
                r = inverse_word(r)
            ulen = rng.randint(0, 2)
            u = tuple(rng.choice(letters) for _ in range(ulen))
            factor = u + r + inverse_word(u)
            candidate = free_reduce(w + factor)
            if w and len(candidate) > target:
                break
            w = candidate
            if len(w) >= target - 3:
                break
        if not w or len(w) > n:
            continue
        if not pres.is_identity(w):
            raise AssertionError("generated word failed the oracle check")
        words.append(w)
    return words[:count] if count < len(words) else words


def save_corpus(words, pres: Presentation, path) -> None:
    with open(path, "w") as fh:
        for w in words:
            fh.write(pres.format_word(w) + "\n")
