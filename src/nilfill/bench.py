"""Benchmark grids: compression and filling scaling experiments.

Every benchmarked trace is serialized and re-validated from its file, not
just in memory.  CSV rows are schema-stable (`c,n,op,len_initial,area,fl,
height,seconds`); with timing disabled a rerun with the same flags and
seed reproduces the data section byte for byte.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass

from .compression import compression_word, power_compression_sequence
from .corpus import corpus_generate
from .engine import replay
from .errors import InsufficientData, NilfillError, OutOfRange
from .filler import certify_afl_pair, fill_with_report
from .presentations import (
    build_chain_presentation,
    build_filler_presentation,
    save_presentation,
)
from .traces import load_trace, save_trace

CSV_HEADER = "c,n,op,len_initial,area,fl,height,seconds"


@dataclass(frozen=True)
class BenchRecord:
    c: int
    n: int
    op: str
    len_initial: int
    area: int
    fl: int
    height: int
    seconds: float

    def csv_row(self) -> str:
        return (f"{self.c},{self.n},{self.op},{self.len_initial},"
                f"{self.area},{self.fl},{self.height},{self.seconds:.6f}")


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float
    n_range: tuple


def fit_exponent(points) -> FitResult:
    """Least-squares line through (log n, log value)."""
    pts = list(points)
    if len(pts) < 4:
        raise InsufficientData(f"need at least 4 points, got {len(pts)}")
    ns = [p[0] for p in pts]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InsufficientData("n values must be strictly increasing")
    if any(v <= 0 for _, v in pts):
        raise InsufficientData("values must be positive for a log-log fit")
    xs = [math.log(n) for n, _ in pts]
    ys = [math.log(v) for _, v in pts]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    intercept = my - slope * mx
    res = math.sqrt(
        sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)) / len(xs)
    )
    return FitResult(slope, intercept, res, (ns[0], ns[-1]))


def _revalidate_from_file(seq, pres, expect_final, trace_dir=None):
    """Round-trip the trace through its serialized file and replay it.  A
    kept trace names the presentation file beside it, named by its digest."""
    keep = trace_dir is not None
    pres_path = "<in-memory>"
    if keep:
        import hashlib  # not at the top: OpenSSL adds 3.6 MB RSS to every command
        os.makedirs(trace_dir, exist_ok=True)
        digest = hashlib.sha256(pres.text.encode()).hexdigest()[:16]
        pres_path = os.path.join(trace_dir, f"presentation-{digest}.pres")
        if not os.path.exists(pres_path):
            save_presentation(pres, pres_path)
    fd, path = tempfile.mkstemp(suffix=".trace", dir=trace_dir)
    os.close(fd)
    try:
        save_trace(seq, path, pres_path)
        back, _ = load_trace(path, pres)
        metrics, final = replay(back)
        if final != expect_final:
            raise NilfillError(f"trace {path} replayed to a different endpoint")
        return metrics
    finally:
        if not keep:
            os.unlink(path)


def bench_compression(c: int, n_range, timing=True, trace_dir=None):
    """Power compression over an n grid: build, file-revalidate, measure,
    and fit the area exponent (classes with nonzero area only)."""
    if not n_range:
        raise OutOfRange("empty n grid")
    pres = build_chain_presentation(c, 1)
    chain = tuple(range(1, c + 1))
    records = []
    for n in n_range:
        t0 = time.perf_counter()
        seq = power_compression_sequence(pres, chain, n)
        elapsed = time.perf_counter() - t0
        expected = compression_word(pres, chain, n, n**c)
        metrics = _revalidate_from_file(seq, pres, expected, trace_dir)
        records.append(
            BenchRecord(c, n, "compress", len(seq.initial), metrics.area,
                        metrics.fl, metrics.height, elapsed if timing else 0.0)
        )
    fit = None
    if all(r.area > 0 for r in records) and len(records) >= 4:
        fit = fit_exponent([(r.n, r.area) for r in records])
    return records, fit


def bench_fill(c: int, m: int, n: int, count: int, seed: int,
               timing=True, trace_dir=None):
    """Fill a generated corpus, file-revalidate every trace, and certify
    the (Area, FL) constants."""
    pres = build_filler_presentation(c, m)
    words = corpus_generate(pres, n, count, seed)
    if not words:
        raise OutOfRange("empty corpus")
    records = []
    results = []
    reports = []
    for w in words:
        t0 = time.perf_counter()
        seq, report = fill_with_report(w, pres)
        elapsed = time.perf_counter() - t0
        metrics = _revalidate_from_file(seq, pres, (), trace_dir)
        records.append(
            BenchRecord(c, len(w), "fill", len(w), metrics.area, metrics.fl,
                        metrics.height, elapsed if timing else 0.0)
        )
        results.append((len(w), metrics))
        reports.append(report)
    certificate = certify_afl_pair(results, c)
    return records, certificate, reports


def write_csv(records, path) -> None:
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a") as fh:
        if fresh:
            fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(r.csv_row() + "\n")
