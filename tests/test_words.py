import random

import pytest

from nilfill.words import (
    commutator,
    format_word,
    free_reduce,
    inverse_word,
    nested_commutator,
    parse_word,
)

X1, X2, X3 = 1, 2, 3
NAMES = ("x1", "x2", "x3")
TABLE = {n: i + 1 for i, n in enumerate(NAMES)}


def test_free_reduce_inverse_pair():
    assert free_reduce((X1, -X1)) == ()


def test_free_reduce_nested_cancellation():
    assert free_reduce((X1, X2, -X2, -X1)) == ()


def test_free_reduce_compression_word_base():
    # z~^0 at c=2, n=2 is x1^-2 x1^2, whose free reduction is empty.
    assert free_reduce((-X1, -X1, X1, X1)) == ()


def test_free_reduce_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        w = tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(30)))
        r = free_reduce(w)
        assert free_reduce(r) == r


def reduce_random_order(w, rng):
    """Independent reducer: cancel a randomly chosen adjacent pair until none."""
    w = list(w)
    while True:
        sites = [i for i in range(len(w) - 1) if w[i] == -w[i + 1]]
        if not sites:
            return tuple(w)
        i = rng.choice(sites)
        del w[i : i + 2]


def test_free_reduce_confluent():
    rng = random.Random(11)
    for _ in range(300):
        w = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(24)))
        assert free_reduce(w) == reduce_random_order(w, rng)


def test_inverse_word_examples():
    assert inverse_word(()) == ()
    assert inverse_word((X1, X2)) == (-X2, -X1)
    # commutator inverse: (a^-1 b^-1 a b)^-1 = b^-1 a^-1 b a
    assert inverse_word((-1, -2, 1, 2)) == (-2, -1, 2, 1)


def test_inverse_word_involutive_and_cancels():
    rng = random.Random(3)
    for _ in range(200):
        w = tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(20)))
        assert inverse_word(inverse_word(w)) == w
        assert free_reduce(w + inverse_word(w)) == ()


def test_nested_commutator_conventions():
    assert nested_commutator([X1]) == (X1,)
    assert nested_commutator([X1, X2]) == (-X1, -X2, X1, X2)


def test_nested_commutator_three_letters():
    # Expand [x1, [x2, x3]] by hand: x1^-1 (x2^-1 x3^-1 x2 x3)^-1 x1 (x2^-1 x3^-1 x2 x3)
    inner = (-X2, -X3, X2, X3)
    expected = (-X1,) + inverse_word(inner) + (X1,) + inner
    got = nested_commutator([X1, X2, X3])
    assert got == expected
    # 1 + 4 + 1 + 4 letters, matching the closed form 3*2^2 - 2.
    assert len(got) == 10


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_nested_commutator_length_formula(k):
    letters = list(range(1, k + 1))
    assert len(nested_commutator(letters)) == 3 * 2 ** (k - 1) - 2


def test_nested_commutator_accepts_blocks():
    # [x1^2, x2^2] = x1^-2 x2^-2 x1^2 x2^2
    got = nested_commutator([(X1, X1), (X2, X2)])
    assert got == (-X1, -X1, -X2, -X2, X1, X1, X2, X2)


def test_commutator_of_words():
    u, v = (X1, X2), (X3,)
    assert commutator(u, v) == (-X2, -X1, -X3, X1, X2, X3)


def test_parse_format_roundtrip():
    w = parse_word("x1^3 x2^-2 x1", TABLE)
    assert w == (1, 1, 1, -2, -2, 1)
    text = format_word(w, NAMES)
    assert text == "x1^3 x2^-2 x1"
    assert parse_word(text, TABLE) == w


def test_parse_rejects_bad_tokens():
    import nilfill.errors as errors

    for bad in ["X1", "x1^0", "x9", "1x", "x1^"]:
        with pytest.raises(errors.NilfillError):
            parse_word(bad, TABLE)


def test_nested_commutator_of_nothing():
    from nilfill.errors import NilfillError

    with pytest.raises(NilfillError, match="nested commutator of an empty list"):
        nested_commutator([])


def test_format_empty_word():
    assert format_word((), NAMES) == ""
    assert parse_word("", TABLE) == ()


def test_parse_positive_signed_exponent():
    assert parse_word("x1^+3 x2^+1", TABLE) == (1, 1, 1, 2)


def test_parse_refuses_words_over_the_cap():
    from nilfill.errors import NilfillError
    from nilfill.words import MAX_WORD_LENGTH

    assert len(parse_word(f"x1^-{MAX_WORD_LENGTH}", TABLE)) == MAX_WORD_LENGTH
    for bad in [f"x1^{MAX_WORD_LENGTH + 1}",
                f"x1^{MAX_WORD_LENGTH} x2",
                "x1^10000000000000000000",
                "x2^-" + "9" * 5000]:     # past int()'s default digit limit
        with pytest.raises(NilfillError, match="word longer than"):
            parse_word(bad, TABLE)
    assert parse_word("x1^000000000000003", TABLE) == (1, 1, 1)


def test_parse_shares_caller_token_runs():
    runs = {}
    assert parse_word("x1^2 x2 x1^2", TABLE, runs) == (1, 1, 2, 1, 1)
    assert runs == {"x1^2": (1, 1), "x2": (2,)}
    assert parse_word("x2 x1^2", TABLE, runs) == (2, 1, 1)
    with pytest.raises(Exception):
        parse_word("x2 x9", TABLE, runs)
    assert "x9" not in runs
