"""Words over signed generator letters.

A letter is a non-zero int: ``+k`` is generator number ``k`` (1-based),
``-k`` its inverse.  A word is a tuple of letters; the empty tuple is the
empty word.  Generator names live in the presentation, not in the word,
so every operation here is pure integer shuffling.
"""

from __future__ import annotations

import operator
import re

from .errors import NilfillError

Word = tuple  # tuple[int, ...]

NAME_RE = re.compile(r"[a-z][a-z0-9_]*$")
_TOKEN_RE = re.compile(r"([a-z][a-z0-9_]*)(?:\^([+-]?[0-9]+))?$")


def inverse_word(w: Word) -> Word:
    """Reverse the word and flip every sign."""
    return tuple(map(operator.neg, reversed(w)))


def free_reduce(w: Word) -> Word:
    """Fully reduce ``w`` by removing adjacent inverse pairs.

    Single stack pass; the reduced word is unique regardless of the
    order cancellations are performed in.
    """
    out: list[int] = []
    push = out.append
    pop = out.pop
    for a in w:
        if out and out[-1] == -a:
            pop()
        else:
            push(a)
    return tuple(out)


def commutator(u: Word, v: Word) -> Word:
    """The commutator word u^-1 v^-1 u v, not reduced."""
    return inverse_word(u) + inverse_word(v) + u + v


def nested_commutator(items) -> Word:
    """Right-nested commutator of words: [a1, ..., ak] = [a1, [a2, ...]].

    Each item may be a single letter (int) or a word; the one-item case
    is the word itself.  The expansion is returned without free reduction.
    """
    parts = [((it,) if isinstance(it, int) else tuple(it)) for it in items]
    if not parts:
        raise NilfillError("nested commutator of an empty list")
    acc = parts[-1]
    for u in reversed(parts[:-1]):
        acc = commutator(u, acc)
    return acc


# --- text grammar ---------------------------------------------------------
#
# A word is whitespace-separated tokens NAME or NAME^INT, INT a non-zero
# signed integer; NAME^-3 denotes three inverse letters.  A word holds at
# most MAX_WORD_LENGTH letters: a longer one is refused before its letters
# are allocated, so no file line can ask for an unbounded word.

MAX_WORD_LENGTH = 10**6
# The relators of one presentation hold at most this many letters together:
# a file or a builder that asks for more is refused.  The largest
# presentation built, the class-4 chain, holds 1,130,496.
MAX_PRESENTATION_LETTERS = 10**7
_MAX_EXPONENT_DIGITS = len(str(MAX_WORD_LENGTH))
_TOO_LONG = f"word longer than {MAX_WORD_LENGTH} letters"


def _token_run(tok: str, name_to_index) -> Word:
    """The letters of one token."""
    m = _TOKEN_RE.match(tok)
    if not m:
        raise NilfillError(f"bad word token {tok!r}")
    name, exp = m.group(1), m.group(2)
    if name not in name_to_index:
        raise NilfillError(f"unknown generator {name!r}")
    idx = name_to_index[name]
    if exp is None:
        return (idx,)
    if len(exp.lstrip("+-").lstrip("0")) > _MAX_EXPONENT_DIGITS:
        raise NilfillError(_TOO_LONG)
    k = int(exp)
    if k == 0:
        raise NilfillError(f"zero exponent in token {tok!r}")
    if abs(k) > MAX_WORD_LENGTH:
        raise NilfillError(_TOO_LONG)
    return (idx if k > 0 else -idx,) * abs(k)


def parse_word(text: str, name_to_index, runs=None) -> Word:
    """Parse the text grammar against a name -> 1-based index mapping.

    ``runs`` is an optional caller-owned dict from token to its letters;
    a caller that parses many words over one alphabet (a presentation
    file, a trace) passes one, so each distinct token is parsed once."""
    if runs is None:
        runs = {}
    out: list[int] = []
    total = 0
    for tok in text.split():
        run = runs.get(tok)
        if run is None:
            run = runs[tok] = _token_run(tok, name_to_index)
        total += len(run)
        if total > MAX_WORD_LENGTH:
            raise NilfillError(_TOO_LONG)
        out += run
    return tuple(out)


def format_word(w: Word, names) -> str:
    """Canonical text form: maximal runs rendered as NAME or NAME^k."""
    toks: list[str] = []
    i, n = 0, len(w)
    while i < n:
        a = w[i]
        j = i
        while j < n and w[j] == a:
            j += 1
        run = j - i
        name = names[abs(a) - 1]
        k = run if a > 0 else -run
        toks.append(name if k == 1 else f"{name}^{k}")
        i = j
    return " ".join(toks)


def format_letter(a: int, names) -> str:
    name = names[abs(a) - 1]
    return name if a > 0 else f"{name}^-1"
