"""Single-byte mutations of a real certificate never crash the validator."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilfill.cli import main
from nilfill.corpus import corpus_generate
from nilfill.filler import fill
from nilfill.presentations import build_filler_presentation, save_presentation
from nilfill.traces import serialize_trace


@pytest.fixture(scope="module")
def certificate(tmp_path_factory):
    """A seeded class-2 fill trace and its presentation file, as bytes."""
    work = tmp_path_factory.mktemp("fuzz")
    pres = build_filler_presentation(2, 2)
    w = max(corpus_generate(pres, 12, 4, seed=5), key=len)
    save_presentation(pres, work / "p.pres")
    (work / "t.trace").write_text(serialize_trace(fill(w, pres), "p.pres"))
    return work, {name: (work / name).read_bytes() for name in ("t.trace", "p.pres")}


def _validate(work):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", "--trace", str(work / "m.trace"),
                     "--presentation", str(work / "m.pres"), "--null"])
    return code, (out.getvalue() + err.getvalue()).splitlines()


def test_unmutated_certificate_validates(certificate):
    work, files = certificate
    (work / "m.trace").write_bytes(files["t.trace"])
    (work / "m.pres").write_bytes(files["p.pres"])
    code, lines = _validate(work)
    assert code == 0 and len(lines) == 1 and lines[0].startswith("ok area=")


@settings(max_examples=200)
@given(target=st.sampled_from(["t.trace", "p.pres"]), draw=st.data())
def test_single_byte_mutation_gives_one_verdict(certificate, target, draw):
    work, files = certificate
    for name, data in files.items():
        if name == target:
            data = bytearray(data)
            data[draw.draw(st.integers(0, len(data) - 1))] = draw.draw(st.integers(0, 255))
        (work / ("m" + name[name.index("."):])).write_bytes(data)
    code, lines = _validate(work)
    assert code in (0, 1)
    assert len(lines) == 1
    assert lines[0].startswith("ok area=" if code == 0 else "error")
