import itertools

import pytest
from helpers import longest_relator, witt_number

from nilfill import presentations
from nilfill.errors import (NilfillError, NoTransportRelator, OutOfRange,
                            PresentationSyntaxError)
from nilfill.presentations import (
    Presentation,
    build_chain_presentation,
    build_filler_presentation,
    load_presentation,
    save_presentation,
    weight_c_basis,
)
from nilfill.words import free_reduce, nested_commutator


def brute_nested_relators(rank, entries):
    """Independent enumeration of the pruned nested commutators of
    ``entries`` entries over the signed letters of ``rank`` generators."""
    pool = [s for i in range(1, rank + 1) for s in (i, -i)]
    seen, out = set(), []
    for combo in itertools.product(pool, repeat=entries):
        r = nested_commutator(combo)
        if free_reduce(r) and r not in seen:
            seen.add(r)
            out.append(r)
    return out


def brute_chain_relators(c, k):
    """Independent enumeration of the pruned chain relator set."""
    return brute_nested_relators(c + 1 - k, c + 2 - k)


def test_chain_c2_k2_is_infinite_cyclic():
    p = build_chain_presentation(2, 2)
    assert p.names == ("x2",)
    assert p.relators == ()
    assert p.nclass == 1
    assert longest_relator(p) == 0


def test_chain_c2_k1_counts():
    p = build_chain_presentation(2, 1)
    assert p.names == ("x1", "x2")
    # raw family size 4^3 = 64 before pruning
    assert 4 ** 3 == 64
    assert list(p.relators) == brute_chain_relators(2, 1)


def test_chain_c3_counts_match_enumeration():
    p = build_chain_presentation(3, 1)
    assert list(p.relators) == brute_chain_relators(3, 1)
    assert longest_relator(p) == 3 * 2 ** 3 - 2


@pytest.mark.parametrize("c,k", [(4, 1), (3, 2), (4, 2), (4, 3)])
def test_chain_relators_match_enumeration(c, k):
    assert list(build_chain_presentation(c, k).relators) == brute_chain_relators(c, k)


def test_filler_class_relators_match_enumeration():
    # the class relators of a 3-generator filler at class 3 (4 entries over
    # 6 letters) follow its definition relators, one per compound letter
    p = build_filler_presentation(3, 3)
    brute = brute_nested_relators(3, 4)
    start = len(p.names) - 3
    assert list(p.relators[start:start + len(brute)]) == brute


@pytest.mark.parametrize("rank,entries", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
def test_few_entries_match_enumeration(rank, entries):
    assert presentations._nested_relators(rank, entries) == brute_nested_relators(rank, entries)


@pytest.mark.parametrize("rank,entries", [(2, 2), (2, 3), (2, 4), (3, 3)])
def test_commuting_letters_is_free_triviality(rank, entries):
    # a^-1 W^-1 a W reduces to the empty word exactly when the letters
    # _commuting_letters reads off W's reduction include a
    pool = [s for i in range(1, rank + 1) for s in (i, -i)]
    for combo in itertools.product(pool, repeat=entries):
        a, w = combo[0], nested_commutator(combo[1:])
        commuting = presentations._commuting_letters(free_reduce(w), pool)
        assert (a in commuting) == (not free_reduce(nested_commutator(combo))), combo


@pytest.mark.parametrize("rank,entries", [(2, 2), (2, 3), (2, 4), (3, 3), (4, 3)])
def test_a_nested_commutator_determines_its_combination(rank, entries):
    # so _nested_relators needs no duplicate check: every combination of a
    # fixed entry count, pruned or not, gives a word of its own
    pool = [s for i in range(1, rank + 1) for s in (i, -i)]
    combos = list(itertools.product(pool, repeat=entries))
    assert len({nested_commutator(combo) for combo in combos}) == len(combos)


def test_letter_bound_counts_the_unpruned_commutators(monkeypatch):
    # 4^3 three-entry commutators over x1, x2 of 10 letters each: 640
    monkeypatch.setattr(presentations, "MAX_PRESENTATION_LETTERS", 640)
    assert presentations._nested_relators(2, 3) == brute_nested_relators(2, 3)
    monkeypatch.setattr(presentations, "MAX_PRESENTATION_LETTERS", 639)
    with pytest.raises(OutOfRange, match="3-entry commutators over 4 letters "
                                         "would hold more than 639 letters"):
        presentations._nested_relators(2, 3)


@pytest.mark.parametrize("c,k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 2)])
def test_chain_relators_are_identities(c, k):
    p = build_chain_presentation(c, k)
    for r in p.relators:
        assert p.is_identity(r)


def test_chain_rejects_bad_k():
    with pytest.raises(OutOfRange):
        build_chain_presentation(2, 3)
    with pytest.raises(OutOfRange):
        build_chain_presentation(2, 0)


@pytest.mark.parametrize("relators,bad", [
    ([(1, -2), (2, 0, 1)], 0),
    ([(1, 3, -1)], 3),
    # the error names the first bad letter in relator order
    ([(1, 3, -1), (-5,)], 3),
    ([(-3, 1), (2, 5)], -3),
    ([(2, 1), (0, 3)], 0),
])
def test_presentation_rejects_letters_naming_no_generator(relators, bad):
    with pytest.raises(NilfillError, match=f"relator letter {bad} names no generator"):
        Presentation(("x1", "x2"), (1, 1), relators, 2)


@pytest.mark.parametrize("names,weights,message", [
    (["x1"], [1, 1], "generator annotation lengths disagree"),
    (["x1", "x1"], [1, 1], "duplicate generator names"),
    # names and weights the presentation file format cannot carry
    (["a b"], [1], "bad generator name 'a b'"),
    (["x1", "x{"], [1, 1], r"bad generator name 'x\{'"),
    (["X1"], [1], "bad generator name 'X1'"),
    (["x1\n"], [1], r"bad generator name 'x1\\n'"),
    ([""], [1], "bad generator name ''"),
    (["x1", "g11"], [1, 0], "weight 0 is not a positive integer"),
    (["x1"], [-1], "weight -1 is not a positive integer"),
])
def test_presentation_rejects_bad_generators(names, weights, message):
    with pytest.raises(NilfillError, match=message):
        Presentation(names, weights, [], 1)


@pytest.mark.parametrize("nclass", (0, -2))
def test_presentation_rejects_a_class_below_1(nclass):
    with pytest.raises(NilfillError, match=f"class {nclass} is not a positive integer"):
        Presentation(["x1"], [1], [], nclass)


def test_quotient_needs_class_2_and_top_weight_last():
    with pytest.raises(NilfillError, match="cannot project a class-1 presentation"):
        build_filler_presentation(1, 2).quotient
    with pytest.raises(NilfillError, match="weight-c generators must come last"):
        Presentation(["g12", "x1", "x2"], [2, 1, 1], [], 2).quotient


def test_loaded_filler_letter_has_no_definition(tmp_path):
    path = tmp_path / "f22.pres"
    save_presentation(build_filler_presentation(2, 2), path)
    pres = load_presentation(path)
    with pytest.raises(NilfillError, match="generator g12 has weight 2 but no defining pair"):
        pres.is_identity((pres.name_to_index["g12"],))


def test_load_refuses_relators_past_the_letter_bound(tmp_path, monkeypatch):
    # five 4-letter relators on lines 4-8: the fourth takes 16 letters past
    # a bound of 12, and is named before the fifth is read
    path = tmp_path / "p.pres"
    path.write_text("class 2\ngen x1 1\ngen x2 1\n" + "rel x1 x2 x1^-1 x2^-1\n" * 5)
    monkeypatch.setattr(presentations, "MAX_PRESENTATION_LETTERS", 12)
    with pytest.raises(PresentationSyntaxError) as exc:
        load_presentation(path)
    assert (exc.value.line, exc.value.reason) == (7, "relators hold more than 12 letters")
    monkeypatch.setattr(presentations, "MAX_PRESENTATION_LETTERS", 20)
    assert len(load_presentation(path).relators) == 5


SQUARE = "class 2\ngen x1 1\ngen x2 1\nrel x1 x2 x1^-1 x2^-1\n"


def test_a_repeated_load_of_one_text_returns_the_presentation_it_built(tmp_path):
    path, copy = tmp_path / "a.pres", tmp_path / "b.pres"
    save_presentation(build_filler_presentation(3, 2), path)
    copy.write_bytes(path.read_bytes())
    first = load_presentation(path)
    assert load_presentation(path) is first
    assert load_presentation(copy) is first
    path.write_text(SQUARE)
    assert load_presentation(path).relators == ((1, 2, -1, -2),)


def _three_texts(tmp_path):
    """Three presentation files of distinct texts."""
    paths = [tmp_path / f"{name}.pres" for name in "abc"]
    for path, rel in zip(paths, ("x1 x2 x1^-1 x2^-1", "x2 x1 x2^-1 x1^-1", "x1 x2^-1 x1^-1 x2")):
        path.write_text(f"class 2\ngen x1 1\ngen x2 1\nrel {rel}\n")
    return paths


def test_a_file_that_fails_to_load_is_never_kept(tmp_path):
    # and leaves both kept presentations in place
    a, b, _ = _three_texts(tmp_path)
    bad = tmp_path / "bad.pres"
    bad.write_text(SQUARE + "rel x1 x3\n")
    kept = load_presentation(a), load_presentation(b)
    for _ in range(2):
        with pytest.raises(PresentationSyntaxError) as exc:
            load_presentation(bad)
        assert (exc.value.line, exc.value.reason) == (5, "unknown generator 'x3'")
        assert load_presentation(b) is kept[1] and load_presentation(a) is kept[0]


def test_the_loader_keeps_two_presentations_warm(tmp_path, monkeypatch):
    # A, B, A, B: each load of a kept text returns the object it built
    monkeypatch.setattr(presentations, "_kept_loads", ())
    a, b, _ = _three_texts(tmp_path)
    first_a, first_b = load_presentation(a), load_presentation(b)
    assert first_a is not first_b
    for _ in range(2):
        assert load_presentation(a) is first_a
        assert load_presentation(b) is first_b


def test_a_third_text_pushes_the_least_recent_out(tmp_path, monkeypatch):
    # A, B, C, A builds A anew; then B, A, C keeps A, which its load made
    # the most recent, and pushes B out
    monkeypatch.setattr(presentations, "_kept_loads", ())
    a, b, c = _three_texts(tmp_path)
    first_a = load_presentation(a)
    load_presentation(b)
    load_presentation(c)
    second_a = load_presentation(a)
    assert second_a is not first_a and second_a.relators == first_a.relators
    first_b = load_presentation(b)
    assert load_presentation(a) is second_a
    load_presentation(c)
    assert load_presentation(a) is second_a
    assert load_presentation(b) is not first_b


def test_relator_id_names_a_transport_relator():
    p = build_chain_presentation(2, 1)
    for chain in [(1, 1, 2), (-2, 1, 2), (2, -1, -2)]:
        assert p.relator_id(chain) == p.relator_index[nested_commutator(chain)]
    with pytest.raises(NoTransportRelator,
                       match=r"presentation lacks \[1, \(1, 2, 2\)\] transport relator"):
        p.relator_id((1, 1, 2, 2))


def test_filler_c1_is_free_abelian():
    p = build_filler_presentation(1, 2)
    assert p.names == ("x1", "x2")
    for r in p.relators:
        assert len(r) == 4
        assert p.is_identity(r)
    # the commutator [x1, x2] is among them
    assert (-1, -2, 1, 2) in p.relator_index


def test_filler_c2_structure():
    p = build_filler_presentation(2, 2)
    assert p.names[:2] == ("x1", "x2")
    a2 = p.letters_of_weight(2)
    assert [p.names[i - 1] for i in a2] == ["g11", "g12", "g21", "g22"]
    # definition relators g_ij^-1 x_i^-1 x_j^-1 x_i x_j
    g12 = p.name_to_index["g12"]
    assert (-g12, -1, -2, 1, 2) in p.relator_index
    # centrality relator [x1, g12], length 4
    assert (-1, -g12, 1, g12) in p.relator_index
    assert all(p.is_identity(r) for r in p.relators)


def test_filler_rejects_degenerate():
    with pytest.raises(OutOfRange):
        build_filler_presentation(0, 2)
    with pytest.raises(OutOfRange):
        build_filler_presentation(2, 0)


def test_filler_c3_relators_true():
    p = build_filler_presentation(3, 2)
    assert all(p.is_identity(r) for r in p.relators)


def test_weight_c_basis_c2_m2():
    p = build_filler_presentation(2, 2)
    chosen, rewrite, vectors = weight_c_basis(p)
    names = {i: p.names[i - 1] for i in p.letters_of_weight(2)}
    assert [names[i] for i in chosen] == ["g12"]
    g11 = p.name_to_index["g11"]
    g21 = p.name_to_index["g21"]
    g22 = p.name_to_index["g22"]
    g12 = p.name_to_index["g12"]
    assert rewrite[g11] == ()
    assert rewrite[g22] == ()
    assert rewrite[g21] == (-g12,)


def test_weight_c_basis_c1_degenerate():
    p = build_filler_presentation(1, 2)
    chosen, rewrite, _ = weight_c_basis(p)
    assert chosen == [1, 2]
    assert rewrite == {}


def test_weight_c_basis_c3_m2_rank():
    p = build_filler_presentation(3, 2)
    chosen, rewrite, _ = weight_c_basis(p)
    # free Lie rank in degree 3 on two letters: (2^3 - 2) / 3 = 2
    assert len(chosen) == 2 == witt_number(2, 3)
    # every dependent letter rewrites inside the basis
    assert set(rewrite) | set(chosen) == set(p.letters_of_weight(3))


def test_projection_of_filler_supports_recursion():
    p = build_filler_presentation(2, 2)
    q = p.quotient
    assert q.nclass == 1
    assert q.names == ("x1", "x2")
    prev = build_filler_presentation(1, 2)
    for r in prev.relators:
        assert r in q.relator_index
    # lift table really lifts: deleting weight-c letters from the source
    # relator at the recorded positions reproduces the quotient relator
    for (rid, surviving), rbar in zip(q.lift_table, q.relators):
        src = p.relators[rid]
        assert tuple(src[i] for i in surviving) == rbar
        assert all(p.weight_of(src[i]) == p.nclass
                   for i in range(len(src)) if i not in surviving)


def test_projection_of_filler_c3():
    p = build_filler_presentation(3, 2)
    q = p.quotient
    prev = build_filler_presentation(2, 2)
    for r in prev.relators:
        assert r in q.relator_index
    assert all(q.is_identity(r) for r in q.relators)


def test_project_word():
    p = build_filler_presentation(2, 2)
    g12 = p.name_to_index["g12"]
    assert p.project_word((g12,) * 5) == ()
    w = (-1, -1, -2, -2, 1, 1, 2, 2) + (-g12,) * 4
    assert p.project_word(w) == (-1, -1, -2, -2, 1, 1, 2, 2)
    assert p.project_word((1, 2)) == (1, 2)


def test_expand_letter():
    p = build_filler_presentation(3, 2)
    g12 = p.name_to_index["g12"]
    assert p.expand_letter(g12) == (-1, -2, 1, 2)
    g112 = p.name_to_index["g112"]
    assert p.expand_letter(g112) == nested_commutator([1, 1, 2])
    assert p.expand_letter(-g12) == (-2, -1, 2, 1)


def _every_presentation():
    """Every chain presentation of class c <= 4, every filler presentation
    of class c <= 3 on m <= 3 generators and each quotient of the filler
    ones, with a test id."""
    for c in range(1, 5):
        for k in range(1, c + 1):
            yield pytest.param(("chain", c, k), id=f"chain-{c}-{k}")
    for c in range(1, 4):
        for m in range(1, 4):
            for level in range(c, 0, -1):
                yield pytest.param(("filler", c, m, level), id=f"filler-{c}-{m}-class-{level}")


@pytest.mark.parametrize("which", _every_presentation())
def test_presentation_file_roundtrip(tmp_path, which):
    if which[0] == "chain":
        p = build_chain_presentation(*which[1:])
    else:
        p = build_filler_presentation(*which[1:3])
        while p.nclass > which[3]:
            p = p.quotient
    path = tmp_path / "p.pres"
    save_presentation(p, path)
    q = load_presentation(path)
    assert q.names == p.names
    assert q.weights == p.weights
    assert q.relators == p.relators
    assert q.nclass == p.nclass


def test_max_weight_c_per_relator():
    p = build_filler_presentation(2, 2)
    assert p.max_weight_c_per_relator >= 2  # centrality relators have two
