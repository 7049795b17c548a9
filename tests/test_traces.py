import random

import pytest

from nilfill.compression import power_compression_sequence
from nilfill.corpus import corpus_generate
from nilfill.engine import PSequence, replay
from nilfill.errors import TraceSyntaxError
from nilfill.filler import fill
from nilfill.presentations import build_chain_presentation, build_filler_presentation
from nilfill.traces import parse_trace, serialize_trace, verdict_line

from helpers import random_valid_sequence


def test_roundtrip_bit_exact():
    pres = build_chain_presentation(2, 1)
    rng = random.Random(13)
    for _ in range(100):
        seq = random_valid_sequence(pres, rng)
        text = serialize_trace(seq, "p.pres")
        back, path = parse_trace(text, pres)
        assert path == "p.pres"
        assert back.initial == seq.initial
        assert back.moves == seq.moves
        assert serialize_trace(back, path) == text
        assert replay(back)[0] == replay(seq)[0]


def test_trace_format_shape():
    pres = build_chain_presentation(2, 1)
    seq = PSequence(pres, (1, -2), [("fe", 0, 2), ("fr", 0), ("ar", 0, 3, 1, 1, 0)])
    text = serialize_trace(seq, "chain.pres")
    lines = text.splitlines()
    assert lines[0] == "word: x1 x2^-1"
    assert lines[1] == "presentation: chain.pres"
    assert lines[2] == "fe 0 x2"
    assert lines[3] == "fr 0"
    assert lines[4] == "ar 0 3 1 1 0"
    assert lines[5] == "qed"


def test_empty_word_header():
    pres = build_chain_presentation(2, 1)
    seq = PSequence(pres, (), [])
    text = serialize_trace(seq, "p")
    assert text.splitlines()[0] == "word:"
    back, _ = parse_trace(text, pres)
    assert back.initial == ()


def test_verdict_ok_and_error():
    pres = build_chain_presentation(2, 1)
    good = PSequence(pres, (), [("fe", 0, 1), ("fr", 0)])
    code, line = verdict_line(good)
    assert code == 0 and line == "ok area=0 fl=2 height=2"

    bad = PSequence(pres, (), [("fe", 0, 1), ("fr", 1)])
    code, line = verdict_line(bad)
    assert code == 1 and line.startswith("error line=4 ")

    nonnull = PSequence(pres, (1,), [])
    code, line = verdict_line(nonnull)
    assert code == 1 and "final word nonempty" in line


def _trace_lines(*body):
    return "\n".join(["word:", "presentation: p", *body, "qed"]) + "\n"


def test_repeated_bad_line_reported_at_first_occurrence():
    pres = build_chain_presentation(2, 1)
    text = _trace_lines("fe 0 x1", "fr x", "fe 1 x1^-1", "fr x", "fr 0")
    with pytest.raises(TraceSyntaxError) as err:
        parse_trace(text, pres)
    assert err.value.line == 4
    assert err.value.reason == "bad integer in trace line 'fr x'"


def test_bad_line_after_repeated_good_lines_gets_its_own_number():
    pres = build_chain_presentation(2, 1)
    body = ["fe 0 x1", "fe 1 x1^-1", "fr 0"] * 500
    text = _trace_lines(*body, "fe 0 x3", *body)
    with pytest.raises(TraceSyntaxError) as err:
        parse_trace(text, pres)
    assert err.value.line == len(body) + 3
    assert err.value.reason == "unknown generator 'x3'"


def test_equal_lines_share_one_move():
    pres = build_chain_presentation(2, 1)
    body = ["fe 0 x1", "fr 0", "fe 0 x2^-1", "fr 0"] * 3
    seq, _ = parse_trace(_trace_lines(*body), pres)
    assert seq.moves == [("fe", 0, 1), ("fr", 0), ("fe", 0, -2), ("fr", 0)] * 3
    assert all(seq.moves[i] is seq.moves[i % 4] for i in range(12))
    assert seq.moves[3] is seq.moves[1]
    assert replay(seq)[1] == ()


@pytest.mark.parametrize("kind", ["fill-c3", "compress-c3"])
def test_roundtrip_bit_exact_long_traces(kind):
    if kind == "fill-c3":
        pres = build_filler_presentation(3, 2)
        w = max(corpus_generate(pres, 10, 40, seed=6), key=len)
        seq = fill(w, pres)
    else:
        pres = build_chain_presentation(3, 1)
        seq = power_compression_sequence(pres, (3, 2, 1), 4)
    text = serialize_trace(seq, "p.pres")
    lines = text.splitlines()
    assert len(set(lines)) < len(lines) * 0.7     # many repeated lines
    back, path = parse_trace(text, pres)
    assert back.moves == seq.moves
    assert serialize_trace(back, path) == text
