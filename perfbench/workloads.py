"""Benchmark workloads: seeded inputs, the jobs of the timed phase, and the
checks on every output.

A workload has a set-up, ``setup(seed, seconds, work, tick)``, which makes
its inputs from the seed and writes them under ``work`` and calls
``tick()`` between its steps (the benchmark times the machine's speed
there, outside the set-up's time), and a runner,
``Runner(work, rec)``, which reads them back into a job list.  The timed
phase calls ``runner.job(i, spec)`` for each job in a closed loop, one
client, one job at a time, and ``runner.check(i, spec, out)`` after the
job's clock has stopped.

Job counts scale with --seconds.  They were sized so that the timed phase
takes about that long on a 2-core x86-64 machine at the commit that added
the benchmark; the work itself does not depend on the program's speed, so
the certificate totals of two commits compare the same jobs.

Library functions are called through their modules (``filler.fill_with_
report``, not a name bound at import), so the span wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

from nilfill import cli, compression, corpus, engine, filler, presentations, traces
from nilfill.engine import Metrics, PSequence

REFERENCE_SECONDS = 20


class SetupError(Exception):
    """The seed cannot produce the inputs the workload needs."""


class WrongOutput(Exception):
    """The program produced an output that differs from the known answer."""


def _scaled(quota: int, seconds: float) -> int:
    return max(1, round(quota * seconds / REFERENCE_SECONDS))


def stratified_words(pres, seed: int, budget: int, pool: int, strata, seconds):
    """Distinct corpus words with a fixed count per stratum, in a seeded
    order.

    A stratum is a predicate on the numbers of weight-1 and weight-2
    letters, the length of a word and the generator of its first letter.
    These set the cost of a class-3 fill far better than the length alone:
    words with at most three letters of each low weight fill in
    milliseconds, words with 14 or more weight-1 letters in about half a
    second, and of those, the ones that start with x2 take about 1.35x the
    area of the ones that start with x1.  Fixing the count per stratum
    keeps the work of a run steady across seeds while the words change."""
    quotas = [_scaled(q, seconds) for _, _, q in strata]
    chosen = [[] for _ in strata]
    seen = set()
    for w in corpus.corpus_generate(pres, budget, pool, seed):
        if w in seen:
            continue
        seen.add(w)
        weights = [pres.weight_of(a) for a in w]
        k1, k2 = weights.count(1), weights.count(2)
        for j, (_, admits, _) in enumerate(strata):
            if admits(k1, k2, len(w), abs(w[0])) and len(chosen[j]) < quotas[j]:
                chosen[j].append(w)
                break
    for (name, _, _), got, want in zip(strata, chosen, quotas):
        if len(got) < want:
            raise SetupError(f"seed {seed}: {len(got)} of {want} {name} words "
                             f"in a pool of {pool}")
    words = [w for group in chosen for w in group]
    random.Random(seed).shuffle(words)
    return words


def _write(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Totals:
    """Certificate counts and the digest of every certificate byte."""

    def __init__(self):
        self.area = 0
        self.height = 0
        self.fl = 0
        self.digest = hashlib.sha256()

    def add(self, metrics) -> None:
        self.area += metrics.area
        self.height += metrics.height
        self.fl = max(self.fl, metrics.fl)


class CompressionConstants:
    """The constants of power compression certificates: the largest area
    over n^(c+1) and the largest filling-length surplus over n."""

    def __init__(self):
        self.lam_area = self.lam_fl = 0.0

    def add(self, metrics, c: int, n: int, initial_len: int) -> None:
        self.lam_area = max(self.lam_area, metrics.area / n ** (c + 1))
        self.lam_fl = max(self.lam_fl, (metrics.fl - initial_len) / n)


# -- fill-c3 ------------------------------------------------------------------

FILL_CLASS, FILL_GENS, FILL_BUDGET, FILL_POOL = 3, 2, 24, 1200
# (name, predicate on weight-1 count, weight-2 count, length and first
# generator, jobs per REFERENCE_SECONDS).  The cheap words are over half the
# jobs, so the median job falls well inside them.  The long words (about
# 1 s a job) outnumber the ten jobs beyond the tail percentile, so the tail
# and the total rest on enough of them to be steady across seeds; they are
# split by first generator, whose two groups differ in cost by a third,
# so that the tail is always the third-largest of the eight x1 words.  Over
# seeds 0-79 a pool of FILL_POOL words held at least 11 long x1 words and
# 13 long x2 words.
FILL_STRATA = (
    ("cheap", lambda k1, k2, n, g: k1 <= 3 and k2 <= 3, 100),
    ("weight-2", lambda k1, k2, n, g: k1 <= 3 and k2 >= 4, 12),
    ("short", lambda k1, k2, n, g: 4 <= k1 <= 9, 8),
    ("medium", lambda k1, k2, n, g: 10 <= k1 <= 13, 8),
    ("long-x1", lambda k1, k2, n, g: 14 <= k1 and n <= 16 and g == 1, 8),
    ("long-x2", lambda k1, k2, n, g: 14 <= k1 and n <= 16 and g == 2, 8),
)
# lambda is a maximum, and a single word of four letters can set it; words
# shorter than this are left out of it so that it does not hinge on the seed
LAMBDA_MIN_LENGTH = 8


def _no_tick() -> None:
    pass


def setup_fill(seed: int, seconds: float, work: str, tick=_no_tick) -> None:
    pres = presentations.build_filler_presentation(FILL_CLASS, FILL_GENS)
    tick()
    words = stratified_words(pres, seed, FILL_BUDGET, FILL_POOL, FILL_STRATA, seconds)
    _write(os.path.join(work, "words.txt"),
           "".join(pres.format_word(w) + "\n" for w in words))


class FillRunner:
    """One job: oracle veto and fill, write the trace and presentation
    files, load both back, and null-replay the loaded trace."""

    def __init__(self, work: str, rec):
        self.work = work
        self.quiet = rec.quiet if rec else contextlib.nullcontext
        self.pres = presentations.build_filler_presentation(FILL_CLASS, FILL_GENS)
        with open(os.path.join(work, "words.txt")) as fh:
            self.jobs = [self.pres.parse_word(line) for line in fh]
        self.totals = Totals()
        self.results = []

    def job(self, i: int, w):
        stem = os.path.join(self.work, f"job{i:04d}")
        seq, _ = filler.fill_with_report(w, self.pres)
        presentations.save_presentation(self.pres, stem + ".pres")
        traces.save_trace(seq, stem + ".trace", f"job{i:04d}.pres")
        loaded = presentations.load_presentation(stem + ".pres")
        back, _ = traces.load_trace(stem + ".trace", loaded)
        return seq, engine.validate_null(back)

    def check(self, i: int, w, out) -> None:
        seq, from_file = out
        stem = os.path.join(self.work, f"job{i:04d}")
        with self.quiet():
            in_memory, final = engine.replay(seq)
        for ext in (".trace", ".pres"):
            self.totals.digest.update(_read_bytes(stem + ext))
            os.unlink(stem + ext)
        if final or in_memory != from_file or tuple(seq.initial) != tuple(w):
            raise WrongOutput(f"fill job {i}: file replay {from_file} "
                              f"!= in-memory replay {in_memory}")
        self.totals.add(from_file)
        self.results.append((len(w), from_file))

    def lambdas(self):
        cert = filler.certify_afl_pair(
            [(n, m) for n, m in self.results if n >= LAMBDA_MIN_LENGTH], FILL_CLASS)
        return cert.lam_area, cert.lam_fl


# -- compress -----------------------------------------------------------------

# (chain, n grid) on the class-len(chain) chain presentation; x1..xc is the
# chain `nilfill compress` builds.  No job takes only a few milliseconds:
# such a job would carry the median or the tail, and its time jumps with
# the machine's speed.  No job takes more than about 2 s either: a job's
# time is scaled by gauge slices taken before and after it, which a long
# job outlasts (class 4 at n = 4, 8.6 s alone, is left out for that).  The
# other class-3 orderings and the class-2 jobs put several jobs of about
# the same size around the median and the tail, so neither rests on a
# single job.  The class-3 orderings (2, 1, 3) and (3, 1, 2) stop with
# NoTransportRelator on the chain presentation and are left out.
COMPRESS_GRID = (
    ((1, 2, 3, 4), (2, 3)),
    ((1, 2, 3), tuple(range(5, 11))),
    ((1, 3, 2), (6, 7, 8)),
    ((2, 3, 1), (6, 7, 8)),
    ((3, 2, 1), (6, 7, 8)),
    ((1, 2), tuple(range(24, 37, 2))),
)


def setup_compress(seed: int, seconds: float, work: str, tick=_no_tick) -> None:
    """Power compressions over the fixed grid, each chain largest n first,
    for every seed and every --seconds: about 16 s of work on the reference
    machine.

    The seed does not vary the inputs, so compress measures the machine
    and the program alone.  The order is fixed because the first job on
    each chain pays for its lookup tables; largest first puts that cost
    where it is smallest as a share."""
    jobs = []
    for chain, grid in COMPRESS_GRID:
        presentations.build_chain_presentation(len(chain), 1)
        tick()
        jobs += [[len(chain), list(chain), n] for n in sorted(grid, reverse=True)]
    _write(os.path.join(work, "jobs.json"), json.dumps(jobs) + "\n")


class CompressRunner:
    """One job: build the power compression, write its trace, parse it
    back and replay it; the endpoint must be the compression word."""

    def __init__(self, work: str, rec):
        self.work = work
        self.quiet = rec.quiet if rec else contextlib.nullcontext
        with open(os.path.join(work, "jobs.json")) as fh:
            self.jobs = [(c, tuple(chain), n) for c, chain, n in json.load(fh)]
        self.pres = {c: presentations.build_chain_presentation(c, 1)
                     for c in sorted({job[0] for job in self.jobs})}
        self.totals = Totals()
        self.constants = CompressionConstants()

    def job(self, i: int, spec):
        c, chain, n = spec
        path = os.path.join(self.work, f"job{i:04d}.trace")
        seq = compression.power_compression_sequence(self.pres[c], chain, n)
        traces.save_trace(seq, path, f"chain-c{c}.pres")
        back, _ = traces.load_trace(path, self.pres[c])
        metrics, final = engine.replay(back)
        return len(seq.initial), metrics, final

    def check(self, i: int, spec, out) -> None:
        c, chain, n = spec
        initial_len, metrics, final = out
        path = os.path.join(self.work, f"job{i:04d}.trace")
        self.totals.digest.update(_read_bytes(path))
        os.unlink(path)
        with self.quiet():
            expected = compression.compression_word(self.pres[c], chain, n, n ** c)
        if final != expected:
            raise WrongOutput(f"compress job {i} (c={c}, n={n}): wrong endpoint")
        self.totals.add(metrics)
        self.constants.add(metrics, c, n, initial_len)

    def lambdas(self):
        return self.constants.lam_area, self.constants.lam_fl


# -- validate -----------------------------------------------------------------

# Fill certificates of low-weight words only: each check takes 7-45 ms, so
# the twelve class-3 compression certificates (each over 80 ms) are the
# twelve largest jobs, and the tail and the constants rest on jobs that do
# not change with the seed.  The tail job is the third-largest of the four
# n = 5 certificates, one per chain ordering, which take the same time, so
# a single slow check cannot set it.  The fills mix cheap words, whose
# checks are all the same presentation load, with weight-2 and short ones,
# whose times spread, so the median does not sit on a block of equal jobs.
VALIDATE_STRATA = (
    ("cheap", lambda k1, k2, n, g: k1 <= 3 and k2 <= 3, 100),
    ("weight-2", lambda k1, k2, n, g: k1 <= 3 and k2 >= 4, 60),
    ("short", lambda k1, k2, n, g: 4 <= k1 <= 5, 60),
)
VALIDATE_POOL = 2400
# (chain, n) of the class-3 compression certificates
VALIDATE_COMPRESS = tuple([((1, 2, 3), n) for n in range(7, 11)]
                          + [(chain, n) for chain in ((1, 2, 3), (1, 3, 2), (2, 3, 1), (3, 2, 1))
                             for n in (5, 6)])
BAD_EVERY = 25          # one of each bad variant per this many fill certificates


def setup_validate(seed: int, seconds: float, work: str, tick=_no_tick) -> None:
    """Certificate files for a third party to check, with known verdicts:
    class-3 fills and class-3 compressions, plus two bad variants of some
    fills (last move dropped; a blank line in the middle)."""
    fpres = presentations.build_filler_presentation(FILL_CLASS, FILL_GENS)
    presentations.save_presentation(fpres, os.path.join(work, "filler.pres"))
    words = stratified_words(fpres, seed, FILL_BUDGET, VALIDATE_POOL,
                             VALIDATE_STRATA, seconds)
    jobs = []

    def add(name, text, pres_file, null, code, line, blank=False, compression=None):
        _write(os.path.join(work, name), text)
        jobs.append({"trace": name, "presentation": pres_file, "null": null,
                     "code": code, "line": line, "blank": blank,
                     "compression": compression})

    tick()
    for i, w in enumerate(words):
        tick()
        seq, _ = filler.fill_with_report(w, fpres)
        text = traces.serialize_trace(seq, "filler.pres")
        metrics = engine.validate_null(seq)
        add(f"fill{i:04d}.trace", text, "filler.pres", True, 0,
            traces.format_ok(metrics))
        if i % BAD_EVERY != BAD_EVERY - 1 or len(seq.moves) < 2:
            continue
        lines = text.splitlines()
        dropped = PSequence(fpres, seq.initial, seq.moves[:-1])
        _, final = engine.replay(dropped)
        add(f"fill{i:04d}-dropped.trace", "\n".join(lines[:-2] + lines[-1:]) + "\n",
            "filler.pres", True, 1,
            f"error line={len(dropped.moves) + 3} final word nonempty "
            f"({len(final)} letters)")
        mid = len(lines) // 2
        add(f"fill{i:04d}-blank.trace", "\n".join(lines[:mid] + [""] + lines[mid:]) + "\n",
            "filler.pres", True, 1, f"error line={mid + 1} ", blank=True)

    cpres = presentations.build_chain_presentation(FILL_CLASS, 1)
    presentations.save_presentation(cpres, os.path.join(work, "chain.pres"))
    for chain, n in VALIDATE_COMPRESS:
        tick()
        seq = compression.power_compression_sequence(cpres, chain, n)
        metrics, _ = engine.replay(seq)
        add(f"compress-{''.join(map(str, chain))}-{n:02d}.trace",
            traces.serialize_trace(seq, "chain.pres"), "chain.pres", False, 0,
            traces.format_ok(metrics), compression=[FILL_CLASS, n, len(seq.initial)])
    random.Random(seed).shuffle(jobs)
    _write(os.path.join(work, "manifest.json"), json.dumps(jobs, indent=0) + "\n")


class ValidateRunner:
    """One job: ``nilfill validate`` on one certificate file, in process;
    its verdict line and exit code must be the known answer."""

    def __init__(self, work: str, rec):
        self.work = work
        with open(os.path.join(work, "manifest.json")) as fh:
            self.jobs = json.load(fh)
        self.totals = Totals()
        self.constants = CompressionConstants()

    def job(self, i: int, spec):
        argv = ["validate", "--trace", os.path.join(self.work, spec["trace"]),
                "--presentation", os.path.join(self.work, spec["presentation"])]
        if spec["null"]:
            argv.append("--null")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue().strip()

    def check(self, i: int, spec, out) -> None:
        code, line = out
        self.totals.digest.update(f"{code} {line}\n".encode())
        # the reason for a blank line is not fixed yet, only its line number
        want = spec["line"]
        if code != spec["code"] or not (line.startswith(want) if spec["blank"]
                                        else line == want):
            raise WrongOutput(f"validate job {i} ({spec['trace']}): got "
                              f"{code} {line!r}, expected {spec['code']} {want!r}")
        if code == 0:
            fields = dict(kv.split("=") for kv in line.split()[1:])
            metrics = Metrics(int(fields["area"]), int(fields["fl"]),
                              int(fields["height"]), 0)
            self.totals.add(metrics)
            if spec["compression"]:
                self.constants.add(metrics, *spec["compression"])

    def lambdas(self):
        return self.constants.lam_area, self.constants.lam_fl


def known_defect(spec, exc: BaseException) -> bool:
    """A blank trace line makes the validator raise IndexError instead of
    giving a verdict, a known defect.  Such a job counts as failed, not as a
    wrong output, until the validator is fixed."""
    return isinstance(spec, dict) and spec["blank"] and isinstance(exc, IndexError)


WORKLOADS = {
    "fill-c3": (setup_fill, FillRunner),
    "compress": (setup_compress, CompressRunner),
    "validate": (setup_validate, ValidateRunner),
}


def inputs_digest(work: str) -> str:
    """SHA-256 over every input file of a set-up, by name."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(work)):
        h.update(name.encode() + b"\0")
        h.update(_read_bytes(os.path.join(work, name)))
    return h.hexdigest()
