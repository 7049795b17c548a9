import hashlib
import math
import random
import tempfile

import pytest
from helpers import fill

from nilfill.bench import (
    CSV_HEADER,
    _revalidate_from_file,
    bench_compression,
    bench_fill,
    fit_exponent,
    write_csv,
)
from nilfill.cli import main
from nilfill.corpus import corpus_generate
from nilfill.engine import PSequence
from nilfill.errors import InsufficientData, NilfillError
from nilfill.presentations import build_chain_presentation, build_filler_presentation


def test_fit_exact_cubic():
    fit = fit_exponent([(n, n**3) for n in range(2, 9)])
    assert abs(fit.slope - 3.0) < 1e-9
    assert fit.residual < 1e-9
    assert fit.n_range == (2, 8)


def test_fit_exact_linear():
    fit = fit_exponent([(n, 5 * n) for n in range(2, 7)])
    assert abs(fit.slope - 1.0) < 1e-9


def test_fit_noisy_cubic():
    rng = random.Random(17)
    pts = [(n, n**3 * (1 + rng.uniform(-0.05, 0.05))) for n in range(2, 12)]
    fit = fit_exponent(pts)
    assert 2.9 <= fit.slope <= 3.1


def test_fit_requires_data():
    with pytest.raises(InsufficientData):
        fit_exponent([(2, 8), (3, 27), (4, 64)])
    with pytest.raises(InsufficientData):
        fit_exponent([(2, 8), (3, 27), (3, 27), (4, 64)])
    with pytest.raises(InsufficientData):
        fit_exponent([(2, 0), (3, 27), (4, 64), (5, 125)])


def test_bench_compression_c1_zero_area():
    records, fit = bench_compression(1, range(2, 7), timing=False)
    assert all(r.area == 0 for r in records)
    assert fit is None


def test_bench_compression_c2_small():
    records, fit = bench_compression(2, range(2, 6), timing=False)
    assert [r.n for r in records] == [2, 3, 4, 5]
    assert all(r.area <= r.height for r in records)
    assert fit is not None and 2.0 < fit.slope < 3.5


def test_bench_fill_cell_and_csv(tmp_path):
    records, cert, reports = bench_fill(2, 2, 14, 12, seed=5, timing=False)
    assert cert.count == 12
    assert all(r.op == "fill" for r in records)
    assert all(rep.max_register <= rep.register_bound for rep in reports)
    path = tmp_path / "bench.csv"
    write_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 13
    # deterministic rerun appends identical data rows
    records2, _, _ = bench_fill(2, 2, 14, 12, seed=5, timing=False)
    assert [r.csv_row() for r in records2] == [r.csv_row() for r in records]


def test_bench_keeps_traces(tmp_path):
    trace_dir = tmp_path / "traces"
    bench_compression(2, range(2, 4), timing=False, trace_dir=str(trace_dir))
    kept = sorted(p.name for p in trace_dir.iterdir())
    assert len(kept) == 3  # two traces plus the shared presentation file
    pres = build_chain_presentation(2, 1)
    digest = hashlib.sha256(pres.text.encode()).hexdigest()[:16]
    assert f"presentation-{digest}.pres" in kept


def test_bench_runs_on_different_presentations_share_a_trace_dir(tmp_path, capsys):
    # each kept trace names the presentation it was built on, even when a
    # run on another class kept its traces in the same directory first
    trace_dir = tmp_path / "traces"
    for c in ("2", "3"):
        assert main(["bench", "compression", "--class", c, "--n-max", "3",
                     "--csv", str(tmp_path / f"k{c}.csv"),
                     "--trace-dir", str(trace_dir), "--no-timing"]) == 0
    traces = sorted(trace_dir.glob("*.trace"))
    assert len(traces) == 4 and len(list(trace_dir.glob("*.pres"))) == 2
    capsys.readouterr()
    for path in traces:
        pres_line = path.read_text().splitlines()[1]
        assert pres_line.startswith("presentation: ")
        code = main(["validate", "--trace", str(path),
                     "--presentation", pres_line[len("presentation: "):]])
        out = capsys.readouterr().out
        assert code == 0 and out.startswith("ok "), (path.name, out)


def test_revalidation_refuses_a_different_endpoint(tmp_path, monkeypatch):
    # a fill with its last move dropped replays to a nonempty word; the
    # refusal still removes the temporary trace file
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    pres = build_filler_presentation(2, 2)
    w = max(corpus_generate(pres, 14, 6, 5), key=len)
    seq = fill(w, pres)
    assert _revalidate_from_file(seq, pres, ()).final_length == 0
    cut = PSequence(pres, seq.initial, seq.moves[:-1])
    with pytest.raises(NilfillError, match="replayed to a different endpoint"):
        _revalidate_from_file(cut, pres, ())
    assert list(tmp_path.iterdir()) == []
