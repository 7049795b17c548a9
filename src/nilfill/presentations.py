"""Finite presentations: the chain family P_k and the filler family.

Generators carry a weight; compound (weight >= 2) filler generators also
carry their defining pair, so every letter expands to a word over the
weight-1 alphabet for oracle evaluation.

The filler presentation for class c is built on top of the one for class
c-1: every lower relator is lifted to a true class-c relator by appending
the inverse of its weight-c value (its Lie coordinates, read off its
series by the oracle, solved over the weight-c basis letters).  Deleting
all weight-c letters from the class-c relator set then yields a working
presentation of the class-(c-1) quotient, which is what lets the filling
recursion run on the literal projection.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache

from . import oracle
from .engine import RelatorPool
from .errors import (NilfillError, NoTransportRelator, OutOfRange,
                     PresentationSyntaxError, UnsupportedIndex)
from .words import (
    MAX_PRESENTATION_LETTERS,
    NAME_RE,
    Word,
    commutator,
    format_word,
    free_reduce,
    inverse_word,
    nested_commutator,
    parse_word,
)


class Presentation(RelatorPool):
    """Generators + relators + class, with derived lookups; the relator
    pool of a filling's outer level.

    The generators and relators never change.  The derived tables
    (``relator_index``, ``basis``, ``quotient``, ``text`` and the counts)
    are built on first use and kept.
    ``load_presentation`` hands one object to every load of the same text,
    so a caller that needs a presentation of its own (a cold one, or one
    per worker) builds it with ``Presentation(...)``."""

    def __init__(self, names, weights, relators, nclass, parents=None):
        self.names = tuple(names)
        self.weights = tuple(weights)
        self.nclass = nclass
        self.parents = tuple(parents) if parents else (None,) * len(self.names)
        if len(self.weights) != len(self.names) or len(self.parents) != len(self.names):
            raise NilfillError("generator annotation lengths disagree")
        # what the presentation file format carries (``load_presentation``)
        for name, weight in zip(self.names, self.weights):
            if not NAME_RE.fullmatch(name):
                raise NilfillError(f"bad generator name {name!r}")
            if weight < 1:
                raise NilfillError(f"weight {weight!r} is not a positive integer")
        if nclass < 1:
            raise NilfillError(f"class {nclass!r} is not a positive integer")
        rank = len(self.names)
        super().__init__(tuple(tuple(r) for r in relators), rank)
        letters = set().union(*self.relators)
        if letters and (0 in letters or min(letters) < -rank or max(letters) > rank):
            # scan in relator order, so the error names the first bad letter
            for r in self.relators:
                for a in r:
                    if not 1 <= abs(a) <= rank:
                        raise NilfillError(f"relator letter {a} names no generator")
        self.name_to_index = {n: i + 1 for i, n in enumerate(self.names)}
        if len(self.name_to_index) != len(self.names):
            raise NilfillError("duplicate generator names")
        self._expansion = {}
        self.lift_table = ()    # set on a quotient by its parent's ``quotient``
        self._chain_ctxs: dict = {}     # compression.chain_context

    # -- basic views --------------------------------------------------------

    @cached_property
    def weight1_count(self) -> int:
        return sum(1 for w in self.weights if w == 1)

    def weight_of(self, letter: int) -> int:
        return self.weights[abs(letter) - 1]

    def letters_of_weight(self, w: int) -> list:
        return [i + 1 for i, wt in enumerate(self.weights) if wt == w]

    @cached_property
    def relator_index(self) -> dict:
        """Exact relator word -> relator id."""
        idx = {}
        for rid, r in enumerate(self.relators):
            idx.setdefault(r, rid)
        return idx

    def _name(self, chain) -> int:
        """The id of the nested commutator of ``chain`` among the relators
        (``RelatorPool.relator_id``)."""
        rid = self.relator_index.get(nested_commutator(chain))
        if rid is None:
            raise NoTransportRelator(
                f"presentation lacks [{chain[0]}, {chain[1:]}] transport relator")
        return rid

    @cached_property
    def max_weight_c_per_relator(self) -> int:
        """M: most weight-c letters (either sign) in any single relator."""
        c = self.nclass
        return max(
            (sum(1 for a in r if self.weight_of(a) == c) for r in self.relators),
            default=0,
        )

    @cached_property
    def basis(self):
        """``weight_c_basis(self)``: (basis letters, rewrite, vectors)."""
        return weight_c_basis(self)

    def parse_word(self, text: str) -> Word:
        return parse_word(text, self.name_to_index)

    def format_word(self, w: Word) -> str:
        return format_word(w, self.names)

    # -- oracle plumbing -----------------------------------------------------

    def expand_letter(self, letter: int) -> Word:
        """Expansion of one signed letter to weight-1 letters via definitions."""
        i = abs(letter)
        cached = self._expansion.get(i)
        if cached is None:
            pair = self.parents[i - 1]
            if pair is None:
                if self.weights[i - 1] != 1:
                    raise NilfillError(
                        f"generator {self.names[i - 1]} has weight "
                        f"{self.weights[i - 1]} but no defining pair "
                        "(presentation files carry no definition data)"
                    )
                cached = (i,)
            else:
                x, y = pair
                cached = commutator(self.expand_letter(x), self.expand_letter(y))
            self._expansion[i] = cached
        return cached if letter > 0 else inverse_word(cached)

    def expand_word(self, w: Word) -> Word:
        out = []
        for a in w:
            out.extend(self.expand_letter(a))
        return tuple(out)

    def defining_chain(self, letter: int) -> tuple:
        """Weight-1 letters whose nested commutator defines this letter."""
        return _defining_chain(self.parents, abs(letter))

    def eval_series(self, w: Word):
        return oracle.eval_word(self.expand_word(w), self.weight1_count, self.nclass)

    def is_identity(self, w: Word) -> bool:
        return oracle.is_unit(self.eval_series(w))

    # -- quotient by the top weight ------------------------------------------

    def project_word(self, w: Word) -> Word:
        c = self.nclass
        wt = self.weights
        return tuple(a for a in w if wt[abs(a) - 1] < c)

    @cached_property
    def quotient(self) -> "Presentation":
        """Presentation of the class-(c-1) quotient: drop weight-c generators,
        delete their letters from every relator, prune and dedupe.

        The result keeps, for every surviving relator, the source relator id
        and the positions of the surviving letters (``lift_table``), which is
        what the filling recursion uses to re-expand quotient moves.
        """
        c = self.nclass
        if c < 2:
            raise NilfillError("cannot project a class-1 presentation")
        keep = [i + 1 for i, w in enumerate(self.weights) if w < c]
        if keep != list(range(1, len(keep) + 1)):
            raise NilfillError("weight-c generators must come last")
        relators = []
        lift_table = []
        seen = {}
        for rid, r in enumerate(self.relators):
            surviving = tuple(p for p, a in enumerate(r) if self.weight_of(a) < c)
            wbar = tuple(r[p] for p in surviving)
            if not free_reduce(wbar) or wbar in seen:
                continue
            seen[wbar] = True
            relators.append(wbar)
            lift_table.append((rid, surviving))
        quot = Presentation(
            self.names[: len(keep)],
            self.weights[: len(keep)],
            relators,
            c - 1,
            self.parents[: len(keep)],
        )
        quot.lift_table = tuple(lift_table)
        return quot

    @cached_property
    def text(self) -> str:
        """The presentation file text (see ``save_presentation``)."""
        lines = [f"class {self.nclass}"]
        lines += [f"gen {n} {w}" for n, w in zip(self.names, self.weights)]
        lines += [f"rel {self.format_word(r)}" for r in self.relators]
        return "\n".join(lines) + "\n"


# --- chain presentations ---------------------------------------------------


def _signed(letters) -> list:
    out = []
    for i in letters:
        out.append(i)
        out.append(-i)
    return out


def _commuting_letters(reduced: Word, pool) -> tuple:
    """The letters a of ``pool`` whose commutator a^-1 W^-1 a W with a word
    W of free reduction ``reduced`` freely reduces to the empty word.  That
    holds exactly when W is a power of a, since the centralizer of a
    generator of a free group is the cyclic group it generates."""
    if not reduced:
        return tuple(pool)
    x = reduced[0]
    if reduced.count(x) < len(reduced):
        return ()
    return (x, -x)


def _nested_relators(rank: int, entries: int):
    """All nested commutators [a_1, [a_2, ..., a_entries]] over the signed
    letters +-1..+-rank, pruned of freely trivial words, in
    ``itertools.product`` order of (a_1, ..., a_entries).  No two
    combinations give the same word: the word's first letter is -a_1, and
    its last 3 * 2^(entries - 2) - 2 letters are the word of (a_2, ...,
    a_entries), so the word determines the combination.

    The words are built one suffix level at a time: every word W of j
    entries gives the word (-a, *W^-1, a, *W) of j + 1 entries for each
    letter a, a in the outer loop and W in the order of its own level, so
    the order is that of the product.  Each suffix is inverted once and
    keeps its free reduction, which is short.  The word a^-1 W^-1 a W
    freely reduces to the empty word exactly when W's reduction is a power
    of a (the centralizer rule of ``_commuting_letters``), so the last
    level is streamed and builds only the words that survive.

    OutOfRange, before any letter or word is built, when the unpruned
    commutators would pass ``MAX_PRESENTATION_LETTERS``."""
    size = 2 * rank
    count = 1
    for j in range(entries):
        # count commutators of j + 1 entries, each of 3 * 2^j - 2 letters
        count *= size
        if count * (3 * 2**j - 2) > MAX_PRESENTATION_LETTERS:
            raise OutOfRange(f"{entries}-entry commutators over {size} letters "
                             f"would hold more than {MAX_PRESENTATION_LETTERS} letters")
    pool = _signed(range(1, rank + 1))
    if entries == 1:
        return [(a,) for a in pool]
    level = [((a,), (a,)) for a in pool]        # (word, its free reduction)
    for _ in range(entries - 2):
        inverted = [(w, inverse_word(w), r, inverse_word(r)) for w, r in level]
        level = [((-a, *wi, a, *w), free_reduce((-a, *ri, a, *r)))
                 for a in pool for w, wi, r, ri in inverted]
    last = [(w, inverse_word(w), _commuting_letters(r, pool)) for w, r in level]
    return [(-a, *wi, a, *w) for a in pool for w, wi, commuting in last
            if a not in commuting]


@lru_cache(maxsize=None)
def build_chain_presentation(c: int, k: int) -> Presentation:
    """P_k: generators x_k..x_c, relators all nested commutators of
    c+2-k entries over the signed generators.  Presents the free
    nilpotent group of class c+1-k."""
    if not 1 <= k <= c:
        raise OutOfRange(f"need 1 <= k <= c, got k={k}, c={c}")
    # the relators first: a class past the letter bound is refused before
    # the generator names, as many as the class, are built
    relators = _nested_relators(c + 1 - k, c + 2 - k)
    names = [f"x{j}" for j in range(k, c + 1)]
    return Presentation(names, [1] * len(names), relators, c + 1 - k)


# --- filler presentations --------------------------------------------------


def _defining_chain(parents, i: int) -> tuple:
    pair = parents[i - 1]
    if pair is None:
        return (i,)
    x, y = pair
    return _defining_chain(parents, x) + _defining_chain(parents, y)


def _filler_generators(c: int, m: int):
    if m > 9:
        raise OutOfRange("generator naming supports at most 9 weight-1 letters")
    names = [f"x{i}" for i in range(1, m + 1)]
    weights = [1] * m
    parents: list = [None] * m
    level = list(range(1, m + 1))
    for w in range(2, c + 1):
        nxt = []
        for x in range(1, m + 1):
            for y in level:
                idx = len(names) + 1
                names.append("g" + "".join(str(d) for d in
                                           _defining_chain(parents, x)
                                           + _defining_chain(parents, y)))
                weights.append(w)
                parents.append((x, y))
                nxt.append(idx)
        level = nxt
    return names, weights, parents


def weight_c_basis(pres: Presentation):
    """Greedy basis of the weight-c letters with independent Lie vectors,
    plus integer rewrite words for the remaining ones.

    Returns (basis_letters, rewrite, vectors) where rewrite maps each
    non-basis weight-c letter to a word over the basis letters and vectors
    maps every weight-c letter to its Lie coordinate tuple (the degree-c
    coefficients of its series on the Lyndon-word monomials).  A letter
    joins the basis exactly when its vector lies outside the span of the
    letters chosen before it.
    """
    c = pres.nclass
    m = pres.weight1_count
    letters = pres.letters_of_weight(c)
    vectors = {i: oracle.lie_coordinates(pres.eval_series((i,)), m, c)
               for i in letters}
    chosen: list[int] = []
    rewrite = {}
    for i in letters:
        sol = oracle.solve_in_basis(vectors[i], [vectors[z] for z in chosen])
        if sol is None:
            chosen.append(i)
        else:
            rewrite[i] = _basis_word(chosen, sol, f"(letter {pres.names[i - 1]})")
    return chosen, rewrite, vectors


def _basis_word(basis_letters, sol, detail: str) -> Word:
    """The word prod z^e over the basis letters z with coefficients e;
    UnsupportedIndex when a coefficient is not an integer."""
    if any(e.denominator != 1 for e in sol):
        raise UnsupportedIndex(detail)
    w: list[int] = []
    for z, e in zip(basis_letters, sol):
        w.extend([z if e > 0 else -z] * abs(int(e)))
    return tuple(w)


def _lift_to_class(pres: Presentation, r: Word, basis_letters, basis_vecs) -> Word:
    """Make a relator of the class-(c-1) quotient true at class c by
    appending the inverse of its weight-c value."""
    series = pres.eval_series(r)
    if oracle.is_unit(series):
        return r
    coords = oracle.lie_coordinates(series, pres.weight1_count, pres.nclass)
    sol = oracle.solve_in_basis(coords, basis_vecs)
    detail = f"(lift of relator of length {len(r)})"
    if sol is None:
        raise UnsupportedIndex(detail)
    return r + inverse_word(_basis_word(basis_letters, sol, detail))


@lru_cache(maxsize=None)
def build_filler_presentation(c: int, m: int) -> Presentation:
    """Presentation on A = A_1 u ... u A_c for the free nilpotent group of
    class c on m generators, arranged so that the top-weight projection is
    again a working filler presentation.

    Relator families: definitions of compound letters; class relators (all
    nested commutators of c+1 entries over the signed weight-1 letters);
    centrality of weight-c letters against everything; basis-change words
    for the dependent weight-c letters; and lifts of the entire class-(c-1)
    relator set, corrected by weight-c words so they hold at class c.
    """
    if c < 1 or m < 1:
        raise OutOfRange(f"need c >= 1 and m >= 1, got c={c}, m={m}")
    # the class relators come first, so a set past the letter bound is
    # refused before the generators, whose count grows as fast, are built
    class_relators = _nested_relators(m, c + 1)
    names, weights, parents = _filler_generators(c, m)
    skeleton = Presentation(names, weights, [], c, parents)

    relators: list[Word] = []
    seen: set = set()

    def add(r: Word):
        if r and free_reduce(r) and r not in seen:
            seen.add(r)
            relators.append(r)

    # (a) definition relators g^-1 [x, y]
    for i in range(m + 1, len(names) + 1):
        x, y = parents[i - 1]
        add((-i,) + commutator((x,), (y,)))

    # (b) class relators over the weight-1 alphabet
    for r in class_relators:
        add(r)

    # (c) centrality of weight-c letters
    ac = [i + 1 for i, w in enumerate(weights) if w == c]
    for x in _signed(range(1, len(names) + 1)):
        for z in _signed(ac):
            add(commutator((x,), (z,)))

    # (d) basis-change relators for dependent weight-c letters
    basis_letters, rewrite, vectors = weight_c_basis(skeleton)
    for i, v in rewrite.items():
        add((i,) + inverse_word(v))

    # (e) lifts of the class-(c-1) relator set
    if c >= 2:
        prev = build_filler_presentation(c - 1, m)
        basis_vecs = [vectors[i] for i in basis_letters]
        for r in prev.relators:
            add(_lift_to_class(skeleton, r, basis_letters, basis_vecs))

    return Presentation(names, weights, relators, c, parents)


# --- file format -----------------------------------------------------------
#
# Line-oriented: `class C`, `gen NAME WEIGHT`, `rel WORD`; comments on `#`.


def save_presentation(pres: Presentation, path) -> None:
    """Write the presentation file.  A presentation's generators and
    relators never change, so its text (``pres.text``) is built on the
    first save and kept for the next."""
    with open(path, "w") as fh:
        fh.write(pres.text)


def read_text(path, error) -> str:
    """The UTF-8 text of a file.  A byte that is not UTF-8 raises
    ``error(line, reason)`` naming its 1-based line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8")
        raise error(len((before + ".").splitlines()), "not UTF-8 text") from None


_COUNT_RE = re.compile(r"[0-9]+$")


def _count(text: str, what: str, number: int) -> int:
    try:
        value = int(text) if _COUNT_RE.match(text) else 0
    except ValueError:      # past int()'s digit limit
        raise PresentationSyntaxError(number, f"{what} has more digits than int() takes") from None
    if value < 1:
        raise PresentationSyntaxError(number, f"{what} {text!r} is not a positive integer")
    return value


# How many presentations ``load_presentation`` keeps.  Certificates of two
# presentations checked in turn (a word's fill and a power compression,
# say) then find both warm; a third text pushes the least recent out.
KEPT_LOADS = 2

# The presentations ``load_presentation`` keeps, most recent first, each
# with the exact text it was parsed from: a tuple of (text, presentation)
# pairs, empty before the first load.  It is read once per load and
# replaced whole, never changed in place, so a load in another thread
# cannot pair one text with another's presentation.
_kept_loads = ()


def load_presentation(path) -> Presentation:
    """Read a presentation file.  Every line that is not in the grammar
    raises PresentationSyntaxError naming it, as does the first ``rel``
    line that takes the relators past ``MAX_PRESENTATION_LETTERS``.

    The loader keeps the last ``KEPT_LOADS`` presentations it built, each
    with the text it read, until a newer text pushes the least recent out.
    A load that reads a kept text again returns that same object, with
    every table it has built since, and makes it the most recent: a
    presentation, and all it derives from its relators, is a function of
    its text.  So a process that loads one or two files many times, in any
    order (validating certificates of two presentations in process, or a
    write and load round trip per job), parses each once; a process that
    loads a file once pays at most ``KEPT_LOADS`` string comparisons, each
    of which stops at once on texts of unequal length.  A file that fails
    to load is never kept, and leaves the kept ones as they were."""
    global _kept_loads
    text = read_text(path, PresentationSyntaxError)
    kept = _kept_loads
    for at, (kept_text, pres) in enumerate(kept):
        if text == kept_text:
            _kept_loads = (kept[at], *kept[:at], *kept[at + 1:])
            return pres
    table: dict = {}            # generator name -> 1-based index
    weights: list[int] = []
    rel_lines: list = []        # (line number, word text)
    nclass = None
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if kind == "rel":
            rel_lines.append((number, rest))
            continue
        fields = rest.split()
        if kind == "class":
            if nclass is not None:
                raise PresentationSyntaxError(number, "second class line")
            if len(fields) != 1:
                raise PresentationSyntaxError(number, "expected 'class C'")
            nclass = _count(fields[0], "class", number)
        elif kind == "gen":
            if len(fields) != 2:
                raise PresentationSyntaxError(number, "expected 'gen NAME WEIGHT'")
            name = fields[0]
            if not NAME_RE.match(name):
                raise PresentationSyntaxError(number, f"bad generator name {name!r}")
            if name in table:
                raise PresentationSyntaxError(number, f"duplicate generator {name!r}")
            weights.append(_count(fields[1], "weight", number))
            table[name] = len(weights)
        else:
            raise PresentationSyntaxError(number, f"unknown keyword {kind!r}")
    if nclass is None:
        raise NilfillError("presentation file lacks a class line")
    relators = []
    runs: dict = {}             # word token -> letters, for this file
    letters = 0
    for number, rel_text in rel_lines:
        try:
            relators.append(parse_word(rel_text, table, runs))
        except NilfillError as exc:
            raise PresentationSyntaxError(number, str(exc)) from None
        letters += len(relators[-1])
        if letters > MAX_PRESENTATION_LETTERS:
            raise PresentationSyntaxError(
                number, f"relators hold more than {MAX_PRESENTATION_LETTERS} letters")
    pres = Presentation(list(table), weights, relators, nclass)
    _kept_loads = ((text, pres), *kept[:KEPT_LOADS - 1])
    return pres
