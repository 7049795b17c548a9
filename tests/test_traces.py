import random
import tracemalloc
from collections import Counter

import pytest

from nilfill import traces
from nilfill.cli import main
from nilfill.compression import power_compression_sequence
from nilfill.corpus import corpus_generate
from nilfill.engine import PSequence, Transport, check_moves, replay
from nilfill.errors import TraceSyntaxError
from nilfill.presentations import (Presentation, build_chain_presentation,
                                   build_filler_presentation, save_presentation)
from nilfill.traces import parse_trace, serialize_trace, verdict_line

from helpers import fill, random_valid_sequence


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


# -- segments ----------------------------------------------------------------


def test_segmented_trace_writes_as_its_flattened_copy():
    # fills splice memoized register increments; each spliced record, whose
    # segment holds its own parts (flat batches and transport entries), is
    # written from its line template, at the segment's offset.  The fills
    # run on a fresh copy of the presentation, so no earlier test has
    # written their records.
    base = build_filler_presentation(3, 2)
    pres = Presentation(base.names, base.weights, base.relators, 3, base.parents)
    seqs = [fill(w, pres) for w in corpus_generate(pres, 12, 4, seed=5)]
    seqs = [seq for seq in seqs if sum(r is not None for r, _, _ in seq.segments) >= 2]
    assert seqs
    records, writes = {}, Counter()
    for seq in seqs:
        flat = PSequence(pres, seq.initial, seq.moves)
        text = serialize_trace(seq, "p.pres")
        for r, parts, _ in seq.segments:
            if r is not None and parts:
                assert parts is r.parts
                records[id(r)] = r
                writes[id(r)] += 1
        assert text == serialize_trace(flat, "p.pres")
        assert replay(seq)[0] == replay(flat)[0] == seq.metrics
        back, _ = parse_trace(text, pres)
        assert replay(back)[0] == seq.metrics
    # the first write leaves a marker, the second keeps the template
    assert sorted(set(writes.values()))[:2] == [1, 2]
    for key, r in records.items():
        template = r.trace_lines[pres.names]
        assert template == "" if writes[key] == 1 else template
    for seq in seqs:
        serialize_trace(seq, "p.pres")
    assert any(type(part) is Transport for r in records.values() for part in r.parts)
    for r in records.values():
        moves = [mv for part in r.parts for mv in part]
        lines = "\n".join(traces._move_line(mv, pres.names) for mv in moves)
        assert r.trace_lines[pres.names].format(*[mv[1] for mv in moves]) == lines


def test_a_record_keeps_its_line_template_from_its_second_write():
    # a power compression's records are each written once, so they keep
    # only a marker; a second write keeps the template, which writes the
    # same text
    pres = build_chain_presentation(3, 1)
    seq = power_compression_sequence(pres, (1, 2, 3), 2)
    records = {id(r): r for r, moves, _ in seq.segments if r is not None and moves}
    text = serialize_trace(seq, "p")
    assert text == serialize_trace(PSequence(pres, seq.initial, seq.moves), "p")
    assert records and all(r.trace_lines == {pres.names: ""} for r in records.values())
    for _ in range(2):
        assert serialize_trace(seq, "p") == text
        assert all(r.trace_lines[pres.names] for r in records.values())


def test_record_with_no_moves_writes_no_line():
    pres = build_chain_presentation(2, 1)
    empty = check_moves(pres, [1], [])
    pair = check_moves(pres, [], [("fe", 0, 2), ("fr", 0)])
    head = (None, [("fe", 0, 1)], 0)
    seq = PSequence(pres, (), segments=[head, (empty, (), 1), (pair, pair.moves, 1),
                                        (empty, (), 0), (None, [("fr", 0)], 0)])
    flat = PSequence(pres, (), seq.moves)
    assert flat.moves == [("fe", 0, 1), ("fe", 1, 2), ("fr", 1), ("fr", 0)]
    text = serialize_trace(seq, "p")
    assert text == serialize_trace(flat, "p") == _trace_lines(
        "fe 0 x1", "fe 1 x2", "fr 1", "fr 0")
    assert verdict_line(seq) == verdict_line(flat) == (0, "ok area=0 fl=4 height=4")


def test_verdict_names_the_line_of_a_bad_move_in_a_later_segment():
    pres = build_chain_presentation(2, 1)
    pair = check_moves(pres, [], [("fe", 0, 2), ("fr", 0)])
    head = (None, [("fe", 0, 1)], 0)
    late = PSequence(pres, (), segments=[head, (pair, pair.moves, 1),
                                         (None, [("fr", 1)], 0)])
    assert verdict_line(late) == (1, "error line=6 free reduction at 1 out of range")
    spliced = PSequence(pres, (), segments=[head, (pair, pair.moves, 3)])
    assert verdict_line(spliced) == (1, "error line=4 free expansion at 3 out of range")
    short = PSequence(pres, (), segments=[head, (pair, pair.moves, 1)])
    assert verdict_line(short) == (1, "error line=6 final word nonempty (2 letters)")


# -- line pieces -------------------------------------------------------------
#
# parse_trace splits its text in pieces of traces._PIECE characters, each
# cut just after a "\n".  The tests below shrink the piece so that short
# texts span many pieces, and compare with the whole text parsed as one
# piece, which is text.splitlines() in one call.

SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.fixture(scope="module")
def c3_trace():
    """The class-3 fill trace of the round-trip test and its presentation."""
    pres = build_filler_presentation(3, 2)
    w = max(corpus_generate(pres, 10, 40, seed=6), key=len)
    return serialize_trace(fill(w, pres), "p.pres"), pres


def _outcome(text, pres):
    """What parse_trace makes of ``text``: the initial word, the moves, for
    each move the first index holding the same tuple, and the path; or the
    error line and reason."""
    try:
        seq, path = parse_trace(text, pres)
    except TraceSyntaxError as exc:
        return "error", exc.line, exc.reason
    first = {}
    shared = [first.setdefault(id(move), i) for i, move in enumerate(seq.moves)]
    return seq.initial, seq.moves, shared, path


def _parses_alike_in_pieces(monkeypatch, text, pres, piece):
    """The outcome of ``text`` in pieces of ``piece`` characters, checked
    against the whole text as one piece."""
    monkeypatch.setattr(traces, "_PIECE", len(text) + 1)
    whole = _outcome(text, pres)
    monkeypatch.setattr(traces, "_PIECE", piece)
    pieces = list(traces._pieces(text))
    assert [line for lines, _ in pieces for line in lines] == text.splitlines()
    assert [last for _, last in pieces] == [False] * (len(pieces) - 1) + [True] * bool(text)
    assert _outcome(text, pres) == whole
    return whole


def _chain_trace(body, tail=("qed",), sep="\n"):
    return sep.join(["word:", "presentation: p", *body, *tail]) + sep


CHAIN_BODY = ["fe 0 x1", "fe 1 x1^-1", "fr 0"] * 200


@pytest.mark.parametrize("piece", [1, 7, 300])
def test_class3_trace_parses_alike_in_pieces(monkeypatch, c3_trace, piece):
    text, pres = c3_trace
    initial, moves, shared, path = _parses_alike_in_pieces(monkeypatch, text, pres, piece)
    assert serialize_trace(PSequence(pres, initial, moves), path) == text
    assert len(set(shared)) < len(moves) * 0.7   # equal lines share a tuple


@pytest.mark.parametrize("at", [0, 1], ids=["search-from-cr", "search-from-lf"])
def test_crlf_trace_cut_right_after_a_crlf(monkeypatch, c3_trace, at):
    text, pres = c3_trace
    crlf = text.replace("\n", "\r\n")
    piece = crlf.index("\r\n", 300) + at    # the first cut's search starts inside a CRLF
    assert crlf.find("\n", piece) == piece + 1 - at
    assert (_parses_alike_in_pieces(monkeypatch, crlf, pres, piece)
            == _outcome(text, pres))


@pytest.mark.parametrize("sep", ["\r", *SEPARATORS],
                         ids=lambda sep: f"U+{ord(sep):04X}")
@pytest.mark.parametrize("newline_every", [0, 3], ids=["only", "with-newlines"])
def test_every_splitlines_boundary_parses_alike_in_pieces(monkeypatch, c3_trace,
                                                          sep, newline_every):
    text, pres = c3_trace
    lines = text.splitlines()
    seps = [("\n" if newline_every and i % newline_every == 0 else sep)
            for i in range(len(lines))]
    other = "".join(line + s for line, s in zip(lines, seps))
    assert (_parses_alike_in_pieces(monkeypatch, other, pres, 300)
            == _outcome(text, pres))


@pytest.mark.parametrize("piece", [1, 16, 300])
@pytest.mark.parametrize("text,line,reason", [
    pytest.param(_chain_trace(CHAIN_BODY[:400] + [""] + CHAIN_BODY[400:]),
                 403, "bad trace line ''", id="blank-line"),
    pytest.param(_chain_trace(CHAIN_BODY, tail=()),
                 len(CHAIN_BODY) + 3, "missing final qed line", id="missing-qed"),
    pytest.param(_chain_trace(CHAIN_BODY[:20] + ["fr x"] + CHAIN_BODY[20:], tail=()),
                 len(CHAIN_BODY) + 4, "missing final qed line",
                 id="missing-qed-after-bad-line"),
    pytest.param(_chain_trace(CHAIN_BODY + ["qed"], tail=("fr 0",)),
                 len(CHAIN_BODY) + 5, "missing final qed line", id="qed-before-the-last-line"),
    pytest.param(_chain_trace(CHAIN_BODY[:300] + ["qed"] + CHAIN_BODY[300:]),
                 303, "bad trace line 'qed'", id="qed-in-the-middle"),
    pytest.param(_chain_trace(CHAIN_BODY[:500] + ["fr x", "fe 0 x3", "fr x"]
                              + CHAIN_BODY[500:]),
                 503, "bad integer in trace line 'fr x'", id="bad-line-in-a-later-piece"),
    pytest.param(_chain_trace(CHAIN_BODY[:20] + ["fe 0 x3"] + CHAIN_BODY[20:500]
                              + ["fe 0 x3"] + CHAIN_BODY[500:]),
                 23, "unknown generator 'x3'", id="bad-line-again-in-a-later-piece"),
    pytest.param(_chain_trace(CHAIN_BODY[:450] + ["fr x"] + CHAIN_BODY[450:], sep="\r"),
                 453, "bad integer in trace line 'fr x'", id="no-newline"),
    pytest.param("word: " + "x1 x1^-1 " * 100 + "\nfr 0\nqed\n",
                 2, "expected a 'presentation:' header line", id="long-first-header"),
    pytest.param("word: x1\n", 2, "expected a 'presentation:' header line",
                 id="one-line"),
    pytest.param("", 1, "expected a 'word:' header line", id="empty"),
])
def test_bad_traces_give_the_same_error_in_pieces(monkeypatch, piece, text, line, reason):
    pres = build_chain_presentation(2, 1)
    assert _parses_alike_in_pieces(monkeypatch, text, pres, piece) == ("error", line, reason)


@pytest.mark.parametrize("piece", [1, 300])
def test_header_longer_than_a_piece(monkeypatch, piece):
    pres = build_chain_presentation(2, 1)
    text = _chain_trace(CHAIN_BODY).replace("word:", "word: " + "x1 x1^-1 " * 100, 1)
    initial, moves, _, path = _parses_alike_in_pieces(monkeypatch, text, pres, piece)
    assert len(initial) == 200 and len(moves) == len(CHAIN_BODY) and path == "p"


def test_parse_peak_memory_is_bounded_by_the_text():
    """The lines of the whole text are never held at once: the parse's
    transient memory stays within a small multiple of the text."""
    pres = build_chain_presentation(3, 1)
    text = serialize_trace(power_compression_sequence(pres, (1, 2, 3), 8), "p.pres")
    assert len(text) > 8 * traces._PIECE
    tracemalloc.start()
    try:
        result = parse_trace(text, pres)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result[0].moves) == len(text.splitlines()) - 3
    assert peak - retained <= 3.5 * len(text)


# -- positions after a known tail -------------------------------------------
#
# A line whose fields after the position (its tail) an accepted line
# already had is read from its position alone when that is ASCII digits.
# Every other position goes to the full grammar, so a line's outcome must
# not depend on whether its tail was seen before.

# kind, tail, and an accepted line of a different tail
KINDS = [pytest.param("fr", "", "fe 0 x1", id="fr"),
         pytest.param("fe", " x1", "fe 0 x2^-1", id="fe"),
         pytest.param("ar", " 3 1 1 0", "ar 0 3 1 1 1", id="ar")]


@pytest.mark.parametrize("kind,tail,_", KINDS)
def test_huge_position_after_an_accepted_tail_is_a_bad_integer(tmp_path, capsys,
                                                               kind, tail, _):
    # int() refuses more than 4,300 digits; the validator must stay total
    pres = build_chain_presentation(2, 1)
    huge = f"{kind} {'9' * 5000}{tail}"
    trace = tmp_path / "t.trace"
    trace.write_text(_chain_trace([f"{kind} 0{tail}", "fe 0 x1", huge, "fr 0"]))
    with pytest.raises(TraceSyntaxError) as err:
        parse_trace(trace.read_text(), pres)
    assert (err.value.line, err.value.reason) == (5, f"bad integer in trace line {huge!r}")
    save_presentation(pres, tmp_path / "p.pres")
    code = main(["validate", "--trace", str(trace), "--presentation", str(tmp_path / "p.pres")])
    out = capsys.readouterr().out
    assert code == 1
    assert out == f"error line=5 bad integer in trace line {huge!r}\n"


def _after_first_line(outcome):
    """An outcome without the first body line's move."""
    if outcome[0] == "error":
        return outcome
    _, moves, shared, _ = outcome
    return moves[1:], shared[1:]


@pytest.mark.parametrize("piece", [1, 300])
@pytest.mark.parametrize("kind,tail,other", KINDS)
@pytest.mark.parametrize("pos,refusal", [
    ("+5", "bad integer in trace line"),
    ("5_0", "bad integer in trace line"),
    ("\u0665", "bad integer in trace line"),      # Arabic-Indic five
    ("\uff15", "bad integer in trace line"),      # fullwidth five
    (" 5", "bad trace line"),
    ("5 ", "bad trace line"),
    ("5\t", "bad trace line"),
    ("5\x1f", "bad trace line"),
    ("05", None),
    ("-3", None),       # read, then refused by the kernel
], ids=["plus", "underscore", "arabic-indic", "fullwidth", "double-space",
        "trailing-space", "tab", "unit-separator", "zero-padded", "negative"])
def test_position_after_a_known_tail_reads_as_after_an_unknown_one(
        monkeypatch, piece, kind, tail, other, pos, refusal):
    pres = build_chain_presentation(2, 1)
    line = f"{kind} {pos}{tail}"
    known, unknown = (_chain_trace([first, line, "fe 1 x2", line])
                      for first in (f"{kind} 0{tail}", other))
    outcome = _after_first_line(_parses_alike_in_pieces(monkeypatch, known, pres, piece))
    assert outcome == _after_first_line(
        _parses_alike_in_pieces(monkeypatch, unknown, pres, piece))
    if refusal is not None:
        assert outcome == ("error", 4, f"{refusal} {line!r}")
        return
    moves, shared = outcome
    fields = {"fr": (), "fe": (1,), "ar": (3, 1, 1, 0)}[kind]
    assert moves == [(kind, int(pos)) + fields, ("fe", 1, 2), (kind, int(pos)) + fields]
    assert shared == [1, 2, 1]
    if pos == "-3":
        code, verdict = verdict_line(PSequence(pres, (1, -1), moves[:1]), require_null=False)
        assert code == 1 and verdict.endswith(" at -3 out of range")


# -- the line memo kept between parses ----------------------------------------
#
# A parse keeps its line memo for the next parse against the same
# presentation object while it holds at most MAX_KEPT_LINES lines.  A warm
# memo must give the moves and refusals of a cold one.

def _cold(monkeypatch, text, pres):
    """The outcome of ``text`` parsed with no memo kept."""
    monkeypatch.setattr(traces, "_kept_memo", None)
    return _outcome(text, pres)


def test_a_second_parse_of_a_text_parses_no_line(monkeypatch, c3_trace):
    text, pres = c3_trace
    first, _ = parse_trace(text, pres)
    missing, parsed = traces._MoveMemo.__missing__, []

    def spy(memo, line):
        parsed.append(line)
        return missing(memo, line)

    monkeypatch.setattr(traces._MoveMemo, "__missing__", spy)
    second, _ = parse_trace(text, pres)
    assert parsed == []
    assert len(second.moves) == len(first.moves)
    assert all(a is b for a, b in zip(first.moves, second.moves))


def test_a_letter_of_another_presentation_is_refused_after_it(monkeypatch):
    # x3 is a generator of the class-3 chain presentation only
    named, other = build_chain_presentation(3, 1), build_chain_presentation(2, 1)
    text = _chain_trace(CHAIN_BODY[:30] + ["fe 0 x3", "fr 0"] + CHAIN_BODY[30:])
    cold = _cold(monkeypatch, text, other)
    assert cold == ("error", 33, "unknown generator 'x3'")
    assert _outcome(text, named)[0] == ()
    assert _outcome(text, other) == cold


@pytest.mark.parametrize("line,reason", [
    ("fe 1 x1^-2", "bad fe letter token 'x1^-2'"),
    (f"fe {'9' * 5000} x1", "bad integer in trace line"),
    ("", "bad trace line ''"),
], ids=["bad-field", "huge-position", "blank-line"])
def test_bad_good_bad_gives_the_same_refusal(monkeypatch, line, reason):
    pres = build_chain_presentation(2, 1)
    bad = _chain_trace(CHAIN_BODY[:100] + [line] + CHAIN_BODY[100:])
    good = _chain_trace(CHAIN_BODY)
    cold = _cold(monkeypatch, bad, pres)
    assert cold[:2] == ("error", 103) and cold[2].startswith(reason)
    assert _outcome(bad, pres) == cold
    assert _outcome(good, pres)[0] == ()
    assert _outcome(bad, pres) == cold


@pytest.mark.parametrize("refused", [False, True], ids=["accepted", "refused"])
@pytest.mark.parametrize("extra,kept", [(0, True), (1, False)],
                         ids=["at-the-bound", "past-the-bound"])
def test_a_memo_past_the_bound_is_not_kept(monkeypatch, refused, extra, kept):
    pres = build_chain_presentation(2, 1)
    monkeypatch.setattr(traces, "_kept_memo", None)
    body = [f"fr {i}" for i in range(traces.MAX_KEPT_LINES + extra)]
    text = _chain_trace(body + ["fr x"] * refused)
    assert _outcome(text, pres)[0] == ("error" if refused else ())
    memo = traces._kept_memo
    assert (memo is not None) == kept
    if kept:
        assert memo.pres is pres and len(memo) == traces.MAX_KEPT_LINES
