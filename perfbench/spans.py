"""Spans around nilfill's layers, recorded from outside the library.

A span has a name, a start, an end, a parent and a job id.  Each wrapped
call opens a span; when it closes, the layer totals (calls, seconds of the
outermost calls, self seconds) are updated.  Self time is the span's
duration minus the time its child spans cover.  Spans of the coarse layers
are also kept as records and written out at the end; the per-step layers
(block transport, register increment, sequence inversion) run up to
millions of times in a run, so only their totals are kept.

Functions are wrapped where their callers look them up: a module that
imported a function by name holds its own binding, so every binding of the
original object in every ``nilfill`` module is replaced.  Methods are
replaced on their class.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time

_now = time.perf_counter_ns
# largest trace text kept for the tracemalloc parse probe
PROBE_LIMIT = 4 << 20


class Recorder:
    """In-memory spans and per-layer totals, split by run phase."""

    def __init__(self):
        self.phase = "setup"
        self.job = -1
        self.paused = False
        self._stack = []        # open frames: [name, start_ns, child_ns, record]
        self._open = {}         # name -> number of open spans of that name
        self.records = []       # [name, start_ns, end_ns, parent record, job, phase]
        self.totals = {}        # (phase, name) -> [calls, outer_ns, self_ns]
        self.counts = {}        # (phase, counter) -> int
        self.distinct = {}      # (phase, counter) -> set of keys
        self.peaks = {}         # (phase, counter) -> max value seen
        self.largest_parse = (0, None, None)   # (length, text, presentation)
        self._parsed = []       # move lists parsed since the last job ended

    def open(self, name: str, keep: bool) -> None:
        record = -1
        if keep:
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            record = len(self.records)
            self.records.append([name, 0, 0, parent, self.job, self.phase])
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([name, _now(), 0, record])

    def close(self) -> None:
        end = _now()
        name, start, child, record = self._stack.pop()
        duration = end - start
        key = (self.phase, name)
        total = self.totals.get(key)
        if total is None:
            total = self.totals[key] = [0, 0, 0]
        total[0] += 1
        total[2] += duration - child
        left = self._open[name] - 1
        self._open[name] = left
        if not left:            # nested calls of one layer count once
            total[1] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if record >= 0:
            self.records[record][1] = start
            self.records[record][2] = end

    @contextlib.contextmanager
    def quiet(self):
        """Calls made by the benchmark's own checks are not recorded."""
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    def add(self, counter: str, value: int) -> None:
        key = (self.phase, counter)
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, counter: str, value: float) -> None:
        key = (self.phase, counter)
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value

    def after_job(self) -> None:
        """Work on parsed traces that is kept out of the job's time."""
        for moves in self._parsed:
            used = {mv[2] for mv in moves if mv[0] == "ar"}
            self.peak("traces.relators_used", len(used))
        self._parsed.clear()

    # -- read-out ------------------------------------------------------------

    def seconds(self, name: str, phases=("timed",), kind: int = 1) -> float:
        return sum(self.totals.get((p, name), (0, 0, 0))[kind] for p in phases) / 1e9

    def calls(self, name: str, phases=("timed",)) -> int:
        return sum(self.totals.get((p, name), (0, 0, 0))[0] for p in phases)

    def fired(self, name: str, phase: str) -> bool:
        return (phase, name) in self.totals

    def dump(self, path) -> None:
        origin = min((r[1] for r in self.records), default=0)
        out = {
            "fields": ["name", "start_ns", "end_ns", "parent", "job", "phase"],
            "spans": [[r[0], r[1] - origin, r[2] - origin, r[3], r[4], r[5]]
                      for r in self.records],
            "totals": [[p, n, c, o / 1e9, s / 1e9]
                       for (p, n), (c, o, s) in sorted(self.totals.items())],
        }
        with open(path, "w") as fh:
            json.dump(out, fh)


# -- wrapping -----------------------------------------------------------------


def _wrap(rec: Recorder, fn, name: str, keep: bool, before=None, after=None):
    def wrapper(*args, **kwargs):
        if rec.paused:
            return fn(*args, **kwargs)
        if before is not None:
            before(rec, args)
        rec.open(name, keep)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close()
        if after is not None:
            after(rec, args, result)
        return result

    return wrapper


def _increment_key(rec, args):
    reg = args[0]
    ctx = reg.ctx
    rec.distinct.setdefault((rec.phase, "compression.increment_keys"), set()).add(
        (ctx.chain, reg.n, reg.q % reg.n ** ctx.c))


def _transport_steps(rec, args):
    # move_left / move_right(self, builder, start, target, sign, exact)
    rec.add("compression.transport_steps", abs(args[2] - args[3]))


def _replay_moves(rec, args):
    rec.add("engine.replay_moves", len(args[0].moves))


def _parse_input(rec, args):
    text, pres = args[0], args[1]
    rec.add("traces.bytes", len(text))
    if rec.phase == "timed" and rec.largest_parse[0] < len(text) <= PROBE_LIMIT:
        rec.largest_parse = (len(text), text, pres)


def _parsed(rec, args, result):
    rec._parsed.append(result[0].moves)


def _fill_report(rec, args, result):
    report = result[1]
    if report.register_bound:
        rec.peak("filler.max_register_ratio",
                 report.max_register / report.register_bound)


# (module, attribute, span name, keep records, before hook, after hook)
LAYERS = (
    ("nilfill.presentations", "Presentation.is_identity", "oracle.veto", True, None, None),
    ("nilfill.corpus", "corpus_generate", "corpus.generate", True, None, None),
    ("nilfill.presentations", "build_filler_presentation", "presentations.build", True, None, None),
    ("nilfill.presentations", "build_chain_presentation", "presentations.build", True, None, None),
    ("nilfill.presentations", "load_presentation", "presentations.load", True, None, None),
    ("nilfill.filler", "fill_with_report", "filler.fill", True, None, _fill_report),
    ("nilfill.compression", "CompressedPower.local_moves", "compression.increment", False,
     _increment_key, None),
    ("nilfill.compression", "BlockMover.move_left", "compression.transport", False,
     _transport_steps, None),
    ("nilfill.compression", "BlockMover.move_right", "compression.transport", False,
     _transport_steps, None),
    ("nilfill.compression", "power_compression_sequence", "compression.power", True, None, None),
    ("nilfill.engine", "normalize_insertions", "engine.normalize", True, None, None),
    ("nilfill.engine", "invert_sequence", "engine.invert", False, None, None),
    ("nilfill.engine", "replay", "engine.replay", True, _replay_moves, None),
    ("nilfill.traces", "serialize_trace", "traces.serialize", True, None, None),
    ("nilfill.traces", "parse_trace", "traces.parse", True, _parse_input, _parsed),
    ("nilfill.cli", "cmd_validate", "cli.validate", True, None, None),
)


def install(rec: Recorder) -> None:
    """Replace every layer entry point named in LAYERS by a span wrapper.

    Raises LookupError when a target is missing, so a renamed layer cannot
    silently drop out of the per-layer figures."""
    for module_name, attr, name, keep, before, after in LAYERS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name, None)
            original = None if owner is None else owner.__dict__.get(meth)
            if original is None:
                raise LookupError(f"span target {module_name}.{attr} not found")
            setattr(owner, meth, _wrap(rec, original, name, keep, before, after))
            continue
        original = getattr(module, attr, None)
        if original is None:
            raise LookupError(f"span target {module_name}.{attr} not found")
        wrapper = _wrap(rec, original, name, keep, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nilfill" or mod_name.startswith("nilfill.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
