"""nilfill benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fill-c3 --seed 7 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: every
end-to-end metric of BENCHMARK.json with --trace 0, every per-layer metric
with --trace 1.  The line before it, {"info": ...}, gives the job count,
the tail percentile, the failure share and the input and certificate
digests; the same report is written under .perfbench_out/.

Exit codes: 0 done; 1 a wrong output; 2 usage, or no nilfill sources next
to the benchmark; 3 inputs that differ from their pinned digest, or a
set-up that is not deterministic; 4 a declared span that never fired.

A run with --trace 0:
  1. set-up, SETUP_REPEATS times, each in a fresh child process that writes
     the seeded inputs; setup_s is the median;
  2. the timed phase in this process, untraced: the fixed job list of the
     workload in a closed loop, one job at a time, each output checked
     after its clock stops.
Every time is reported at the reference speed of speed.py: scaled by a
fixed pure-Python slice timed next to it (between jobs, and between the
steps of each set-up), because the machine's own speed drifts more between runs than the
bounds allow.  The raw times are in the info line.
A run with --trace 1 sets up in this process with every span wrapper
installed, runs the timed phase untraced in a fresh child (the base of
bench.tracing_overhead), then runs it traced here.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
CHILD_TIMEOUT = 170

# spans each workload must fire, by phase
EXPECTED_SPANS = {
    "fill-c3": {
        "setup": ("presentations.build", "corpus.generate", "oracle.veto"),
        "timed": ("oracle.veto", "filler.fill", "compression.increment",
                  "compression.transport", "engine.normalize", "engine.invert",
                  "traces.serialize", "presentations.load", "traces.parse",
                  "engine.replay"),
    },
    "compress": {
        "setup": ("presentations.build",),
        "timed": ("compression.power", "compression.transport",
                  "traces.serialize", "traces.parse", "engine.replay"),
    },
    "validate": {
        "setup": ("presentations.build", "corpus.generate", "oracle.veto",
                  "filler.fill", "compression.power", "traces.serialize"),
        "timed": ("cli.validate", "presentations.load", "traces.parse",
                  "engine.replay"),
    },
}


class Abort(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _child(args, phase: str, work: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--phase", phase, "--work", work]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise Abort(proc.returncode, f"{phase} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_pin(workload: str, seed: int, seconds: float, digest: str):
    """True when the digest matches its pin, None for a held-out seed."""
    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)
    if seconds != pins["seconds"] or str(seed) not in pins["inputs"][workload]:
        return None
    if pins["inputs"][workload][str(seed)] != digest:
        raise Abort(3, f"{workload} seed {seed}: inputs digest {digest} differs "
                       "from its pin in perfbench/pins.json")
    return True


def timed_phase(workload: str, work: str, rec=None):
    """Run every job once, in order, with a gauge slice before the first job
    and after each; returns (runner, raw job times in s, job times at
    reference speed in s, failures by exception type)."""
    import workloads

    runner = workloads.WORKLOADS[workload][1](work, rec)
    if rec is not None:
        rec.phase = "timed"
    gauge = speed.Gauge()
    gauge.sample()
    times, failures = [], {}
    for i, spec in enumerate(runner.jobs):
        if rec is not None:
            rec.job = i
            rec.open("job", True)
        exc = out = None
        start = time.perf_counter_ns()
        try:
            out = runner.job(i, spec)
        except Exception as e:      # counted below; the run goes on
            exc = e
        end = time.perf_counter_ns()
        gauge.sample()
        if rec is not None:
            rec.close()
            rec.after_job()
        times.append((end - start) / 1e9)
        if exc is None:
            runner.check(i, spec, out)
        elif workloads.known_defect(spec, exc):
            name = type(exc).__name__
            failures[name] = failures.get(name, 0) + 1
        else:
            raise workloads.WrongOutput(
                f"job {i} raised {type(exc).__name__}: {exc}") from exc
    return runner, times, gauge.normalise_jobs(times), failures


def timed_setup(setup):
    """Call setup(tick); the set-up calls tick() between its steps, where a
    gauge slice is taken outside its time.  Returns (raw seconds, seconds at
    reference speed, each step scaled as a job is)."""
    gauge = speed.Gauge()
    gauge.start()
    setup(gauge.tick)
    gauge.tick()
    return sum(gauge.segments), sum(gauge.normalise_jobs(gauge.segments))


def _tail(ms):
    """The highest percentile with at least ten jobs beyond it."""
    n = len(ms)
    if n <= 10:
        return ms[-1], 100.0
    return ms[n - 11], 100.0 * (n - 10) / n


def end_to_end(runner, times, setup_samples):
    ms = sorted(t * 1e3 for t in times)
    tail, _ = _tail(ms)
    lam_area, lam_fl = runner.lambdas()
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(times),
        "job_ms_p50": statistics.median(ms),
        "job_ms_tail": tail,
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "area_total": runner.totals.area,
        "height_total": runner.totals.height,
        "fl_max": runner.totals.fl,
        "lambda_area": lam_area,
        "lambda_fl": lam_fl,
    }


def per_layer(rec, traced_wall: float, untraced_wall: float):
    import nilfill.traces

    setup, both = ("setup",), ("setup", "timed")
    _, text, pres = rec.largest_parse
    parse_peak = 0.0
    if text is not None:
        with rec.quiet():
            tracemalloc.start()
            try:
                nilfill.traces.parse_trace(text, pres)
                parse_peak = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
    increments = rec.calls("compression.increment")
    keys = rec.distinct.get(("timed", "compression.increment_keys"), ())
    replay_s = rec.seconds("engine.replay")
    count = lambda name: rec.counts.get(("timed", name), 0)
    peak = lambda name: rec.peaks.get(("timed", name), 0)
    return {
        "oracle.veto_s": rec.seconds("oracle.veto", both),
        "oracle.veto_calls": rec.calls("oracle.veto", both),
        "corpus.generate_s": rec.seconds("corpus.generate", setup),
        "presentations.build_s": rec.seconds("presentations.build", setup),
        "presentations.load_s": rec.seconds("presentations.load"),
        "filler.fill_s": rec.seconds("filler.fill"),
        "filler.self_s": rec.seconds("filler.fill", kind=2),
        "filler.max_register_ratio": peak("filler.max_register_ratio"),
        "compression.increment_s": rec.seconds("compression.increment"),
        "compression.increments": increments,
        "compression.increment_distinct_ratio": len(keys) / increments if increments else 0,
        "compression.transport_s": rec.seconds("compression.transport"),
        "compression.transport_steps": count("compression.transport_steps"),
        "compression.power_s": rec.seconds("compression.power"),
        "engine.normalize_s": rec.seconds("engine.normalize"),
        "engine.invert_s": rec.seconds("engine.invert"),
        "engine.replay_s": replay_s,
        "engine.replay_moves_per_s": count("engine.replay_moves") / replay_s if replay_s else 0,
        "traces.serialize_s": rec.seconds("traces.serialize"),
        "traces.parse_s": rec.seconds("traces.parse"),
        "traces.bytes": count("traces.bytes"),
        "traces.parse_peak_mb": parse_peak,
        "traces.relators_used": peak("traces.relators_used"),
        "cli.validate_self_s": rec.seconds("cli.validate", kind=2),
        "bench.tracing_overhead": traced_wall / untraced_wall,
    }


def _run(args, work: str) -> tuple:
    """One run as the command line asks for it; returns (result, info)."""
    import workloads

    setup_fn = workloads.WORKLOADS[args.workload][0]
    first = os.path.join(work, "setup0")
    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
        os.makedirs(first)
        raw, setup_s = timed_setup(
            lambda tick: setup_fn(args.seed, args.seconds, first, tick))
        setup_raw, setup_samples = [raw], [setup_s]
        digests = {workloads.inputs_digest(first)}
    else:
        setup_raw, setup_samples, digests = [], [], set()
        for k in range(SETUP_REPEATS):
            out = _child(args, "setup", os.path.join(work, f"setup{k}"))
            setup_raw.append(out["raw_s"])
            setup_samples.append(out["setup_s"])
            digests.add(out["inputs_sha256"])
            if k:
                shutil.rmtree(os.path.join(work, f"setup{k}"))
    if len(digests) != 1:
        raise Abort(3, f"set-up is not deterministic: {sorted(digests)}")
    digest = digests.pop()
    pinned = _check_pin(args.workload, args.seed, args.seconds, digest)

    if args.trace:
        untraced = _child(args, "timed", first)
    runner, raw_times, times, failures = timed_phase(args.workload, first, rec)
    wall = sum(times)
    if args.trace:
        rec.phase = "probe"
        metrics = per_layer(rec, wall, untraced["wall_s"])
        missing = [f"{phase}:{name}"
                   for phase, names in EXPECTED_SPANS[args.workload].items()
                   for name in names if not rec.fired(name, phase)]
        os.makedirs(OUT_ROOT, exist_ok=True)
        rec.dump(os.path.join(OUT_ROOT, f"spans-{args.workload}-seed{args.seed}.json"))
        if missing:
            raise Abort(4, f"declared spans never fired: {', '.join(missing)}")
    else:
        metrics = end_to_end(runner, times, setup_samples)

    failed = sum(failures.values())
    ms = sorted(t * 1e3 for t in times)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": len(times),
        "tail_percentile": round(_tail(ms)[1], 2),
        "fail_ratio": failed / len(times), "failed_by": failures,
        "inputs_sha256": digest, "inputs_pinned": pinned,
        "certificates_sha256": runner.totals.digest.hexdigest(),
        "setup_samples_s": setup_samples,
        "raw_setup_samples_s": setup_raw,
        "raw_wall_s": sum(raw_times),
    }
    if args.trace:
        info["untraced_wall_s"] = untraced["wall_s"]
        info["traced_wall_s"] = wall
    result = {"correct": True, "attempted": len(times), "failed": failed,
              "metrics": metrics}
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True,
                    choices=sorted(EXPECTED_SPANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "timed"),
                    help="internal: one step of a run, in a child process")
    ap.add_argument("--work", help="internal: the step's work directory")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "nilfill", "__init__.py")):
        print(f"error: no nilfill sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.phase == "setup":
        def setup(tick):
            import workloads
            os.makedirs(args.work)
            workloads.WORKLOADS[args.workload][0](args.seed, args.seconds, args.work, tick)

        raw, setup_s = timed_setup(setup)
        import workloads
        print(json.dumps({"setup_s": setup_s, "raw_s": raw,
                          "inputs_sha256": workloads.inputs_digest(args.work)}))
        return 0
    if args.phase == "timed":
        _, _, times, _ = timed_phase(args.workload, args.work)
        print(json.dumps({"wall_s": sum(times)}))
        return 0

    import workloads

    end_units, layer_units = _declared()
    units = layer_units if args.trace else end_units
    work = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    wrong = json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}})
    try:
        result, info = _run(args, work)
    except Abort as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.code == 1:       # a child met a wrong output
            print(wrong)
        return exc.code
    except workloads.WrongOutput as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        print(wrong)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)

    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                         for name in units}
    info["elapsed_s"] = time.perf_counter() - _START
    os.makedirs(OUT_ROOT, exist_ok=True)
    with open(os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
