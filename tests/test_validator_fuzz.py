"""Mutations of a real certificate never crash the validator: single bytes,
the position field of a line whose tail came earlier, and one field of a
line inside a transport run, whose verdict is that of a replay one move at
a time.  Each mutated trace gets the same verdict parsed cold and parsed
right after its unmutated trace, from that trace's line memo."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from helpers import fill, one_move_per_call
from hypothesis import strategies as st

from nilfill import traces
from nilfill.cli import main
from nilfill.compression import power_compression_sequence
from nilfill.corpus import corpus_generate
from nilfill.engine import Metrics
from nilfill.presentations import (build_chain_presentation, build_filler_presentation,
                                   load_presentation, save_presentation)
from nilfill.traces import format_ok, parse_trace, serialize_trace

FILES = ("t.trace", "p.pres")


def _certificate(work, nclass, budget, count, seed):
    """A seeded fill trace of the longest corpus word and its presentation
    file, as bytes."""
    pres = build_filler_presentation(nclass, 2)
    w = max(corpus_generate(pres, budget, count, seed=seed), key=len)
    save_presentation(pres, work / "p.pres")
    (work / "t.trace").write_text(serialize_trace(fill(w, pres), "p.pres"))
    return work, {name: (work / name).read_bytes() for name in FILES}


@pytest.fixture(scope="module")
def certificate(tmp_path_factory):
    """Class 2: a short trace."""
    return _certificate(tmp_path_factory.mktemp("fuzz"), 2, 12, 4, 5)


@pytest.fixture(scope="module")
def certificate_c3(tmp_path_factory):
    """Class 3: 7,354 trace lines, of which 2,917 are distinct, so most
    lines are parsed once and reused."""
    return _certificate(tmp_path_factory.mktemp("fuzz3"), 3, 10, 40, 6)


@pytest.fixture(scope="module")
def compression_c3(tmp_path_factory):
    """A class-3 power compression (n = 3, 4,515 lines), whose transport
    runs move a 10-letter block left one letter a line."""
    work = tmp_path_factory.mktemp("fuzz_runs")
    pres = build_chain_presentation(3, 1)
    save_presentation(pres, work / "p.pres")
    seq = power_compression_sequence(pres, (1, 2, 3), 3)
    return work, serialize_trace(seq, "p.pres"), (work / "p.pres").read_bytes()


def _validate(work, null=True, trace="m.trace"):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", "--trace", str(work / trace),
                     "--presentation", str(work / "m.pres")] + ["--null"] * null)
    return code, (out.getvalue() + err.getvalue()).splitlines()


def _validate_cold_and_warm(work, unmutated, null=True):
    """The verdict of m.trace parsed with no line memo kept, checked to be
    its verdict right after the unmutated trace's, whose memo it starts
    from."""
    traces._kept_memo = None
    cold = _validate(work, null)
    (work / "u.trace").write_bytes(unmutated)
    _validate(work, null, "u.trace")
    assert _validate(work, null) == cold
    return cold


def _mutate_and_validate(certificate, target, draw):
    work, files = certificate
    for name, data in files.items():
        if name == target:
            data = bytearray(data)
            data[draw.draw(st.integers(0, len(data) - 1))] = draw.draw(st.integers(0, 255))
        (work / ("m" + name[name.index("."):])).write_bytes(data)
    code, lines = _validate_cold_and_warm(work, files["t.trace"])
    assert code in (0, 1)
    assert len(lines) == 1
    assert lines[0].startswith("ok area=" if code == 0 else "error")


def _validates_unmutated(certificate):
    work, files = certificate
    (work / "m.trace").write_bytes(files["t.trace"])
    (work / "m.pres").write_bytes(files["p.pres"])
    code, lines = _validate(work)
    assert code == 0 and len(lines) == 1 and lines[0].startswith("ok area=")


def test_unmutated_certificate_validates(certificate):
    _validates_unmutated(certificate)


def test_unmutated_class3_certificate_validates(certificate_c3):
    _validates_unmutated(certificate_c3)


@settings(max_examples=200)
@given(target=st.sampled_from(FILES), draw=st.data())
def test_single_byte_mutation_gives_one_verdict(certificate, target, draw):
    _mutate_and_validate(certificate, target, draw)


@settings(max_examples=100)
@given(target=st.sampled_from(FILES), draw=st.data())
def test_single_byte_mutation_of_class3_certificate(certificate_c3, target, draw):
    _mutate_and_validate(certificate_c3, target, draw)


@settings(max_examples=100)
@given(target=st.sampled_from(FILES), draw=st.data())
def test_single_byte_mutation_of_class3_certificate_in_small_pieces(certificate_c3, target, draw):
    # the class-3 trace is one piece at the real piece size; cut every few
    # hundred characters, it must give the same one verdict
    work = certificate_c3[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traces, "_PIECE", 300)
        _mutate_and_validate(certificate_c3, target, draw)
        in_pieces = _validate(work)
    assert _validate(work) == in_pieces


# what a rewritten position is drawn from: runs of digits past int()'s
# limit of 4,300, signs, "_", other scripts' digits, spaces and controls
POSITION_PARTS = st.one_of(
    st.text("0123456789", min_size=1, max_size=12),
    st.builds(str.__mul__, st.sampled_from("0123456789"),
              st.one_of(st.integers(1, 5000), st.integers(4299, 4302))),
    st.sampled_from(["-", "+", "_", "\u0665", "\uff15", "\u00b2", " ", "\t",
                     "\x00", "\x1f", "\x7f", "\x85"]),
)


@settings(max_examples=100)
@given(draw=st.data())
def test_position_rewrite_of_class3_certificate(certificate_c3, draw):
    # only lines whose kind and tail (the fields after the position) an
    # earlier line has: those a parse may read from their position alone
    work, files = certificate_c3
    lines = files["t.trace"].decode().split("\n")
    seen, after_seen = set(), []
    for i, line in enumerate(lines[2:-2], 2):
        kind, _, rest = line.partition(" ")
        key = kind, rest.partition(" ")[2]
        if key in seen:
            after_seen.append(i)
        seen.add(key)
    i = draw.draw(st.sampled_from(after_seen))
    kind, _, rest = lines[i].partition(" ")
    _, space, tail = rest.partition(" ")
    pos = "".join(draw.draw(st.lists(POSITION_PARTS, min_size=1, max_size=4)))
    lines = lines[:i] + [f"{kind} {pos}{space}{tail}"] + lines[i + 1:]
    (work / "m.trace").write_text("\n".join(lines), encoding="utf-8")
    (work / "m.pres").write_bytes(files["p.pres"])
    code, out = _validate_cold_and_warm(work, files["t.trace"])
    assert code in (0, 1)
    assert len(out) == 1
    assert out[0].startswith("ok area=" if code == 0 else "error")


def _one_move_per_call(work, text):
    """The verdict of a replay that hands the kernel one move per call, so
    that no transport run is continued."""
    seq, _ = parse_trace(text, load_presentation(work / "m.pres"))
    result = one_move_per_call(seq.presentation, seq.initial, seq.moves)
    if result[0] == "refused":
        return 1, [f"error line={result[1] + 3} {result[2]}"]
    _, area, fl, word = result
    return 0, [format_ok(Metrics(area, fl, len(seq.moves), len(word)))]


@settings(max_examples=100)
@given(draw=st.data())
def test_field_mutation_inside_a_transport_run(compression_c3, draw):
    # one integer field of an ar line that continues a run (the line before
    # is an ar line one position away), moved a little or set to a value
    # the field has on another line, so that the mutated move may be one
    # the kernel has seen: the validator, which checks runs as runs, gives
    # the verdict of a replay one move at a time
    work, text, pres_bytes = compression_c3
    lines = text.split("\n")
    fields = [line.split(" ") for line in lines]
    inside = [i for i in range(3, len(lines))
              if fields[i][0] == fields[i - 1][0] == "ar"
              and abs(int(fields[i][1]) - int(fields[i - 1][1])) == 1]
    i = draw.draw(st.sampled_from(inside))
    k = draw.draw(st.integers(1, 5))
    old = int(fields[i][k])
    values = [st.sampled_from([-2, -1, 1, 2, 50]).map(old.__add__)]
    elsewhere = sorted({int(f[k]) for f in fields if f[0] == "ar"} - {old})
    if elsewhere:       # every inversion flag is 0
        values.append(st.sampled_from(elsewhere))
    value = draw.draw(st.one_of(values))
    lines[i] = " ".join(fields[i][:k] + [str(value)] + fields[i][k + 1:])
    mutated = "\n".join(lines)
    (work / "m.trace").write_text(mutated)
    (work / "m.pres").write_bytes(pres_bytes)
    verdict = _validate_cold_and_warm(work, text.encode(), null=False)
    assert verdict == _one_move_per_call(work, mutated)
    assert len(verdict[1]) == 1
