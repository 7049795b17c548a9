import pytest
from helpers import load_corpus

from nilfill.corpus import corpus_generate, save_corpus, structured_words
from nilfill.errors import OutOfRange
from nilfill.presentations import build_filler_presentation


@pytest.fixture(scope="module")
def p2():
    return build_filler_presentation(2, 2)


def test_count_zero(p2):
    assert corpus_generate(p2, 10, 0, 1) == []
    with pytest.raises(OutOfRange, match="count >= 0"):
        corpus_generate(p2, 20, -1, 1)


def test_every_word_is_trivial_and_bounded(p2):
    words = corpus_generate(p2, 20, 40, seed=3)
    assert len(words) == 40
    for w in words:
        assert 0 < len(w) <= 20
        assert p2.is_identity(w)


def test_budget_one(p2):
    # at budget 1 the only trivial words are single letters equal to 1
    words = corpus_generate(p2, 1, 3, seed=1)
    assert len(words) == 3
    for w in words:
        assert len(w) == 1
        assert p2.is_identity(w)


def test_reproducible(p2):
    a = corpus_generate(p2, 16, 30, seed=9)
    b = corpus_generate(p2, 16, 30, seed=9)
    assert a == b
    c = corpus_generate(p2, 16, 30, seed=10)
    assert a != c


def test_doubling_extends(p2):
    # same seed, doubled count: the first half is the original corpus
    small = corpus_generate(p2, 16, 25, seed=4)
    big = corpus_generate(p2, 16, 50, seed=4)
    assert big[: len(small)] == small


def test_structured_family(p2):
    words = structured_words(p2, 40)
    g12 = p2.name_to_index["g12"]
    assert words
    assert words[0] == (-1, -2, 1, 2, -g12)
    for w in words:
        assert p2.is_identity(w)


def test_structured_in_c3():
    p3 = build_filler_presentation(3, 2)
    words = structured_words(p3, 16)
    assert words
    for w in words:
        assert p3.is_identity(w)


def test_corpus_file_roundtrip(p2, tmp_path):
    words = corpus_generate(p2, 12, 10, seed=2)
    path = tmp_path / "corpus.txt"
    save_corpus(words, p2, path)
    assert load_corpus(path, p2) == words
