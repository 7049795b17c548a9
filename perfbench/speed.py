"""A gauge of the machine's speed, so that run times compare across runs.

The 2-vCPU virtual machine the benchmark was made on shares its host, and
its speed drifts by up to 1.6x over tens of seconds: over a 5-minute
probe, the mean time of a fixed pure-Python loop in 20 s windows spread by
0.27 of its median (quartile distance), whatever the window length.  No run
length averages that out, so a raw time compares the machine, not the
program.

The gauge runs a fixed reference slice, pure Python that imports nothing
from nilfill (free reduction of words over a few letters, with tuple, list
and dict traffic as in the program's own word handling), between the jobs
of the timed phase and between the steps of each set-up.  A time is reported at the
reference speed: the measured time times ``NOMINAL_S`` over the slice times
measured next to it.  On the same probe, a nilfill job normalised so
spread by 0.05 across 20 s windows where its raw time spread by 0.20.  A
change to the program moves the job times and not the slices, so it shows
in full; the raw times are kept in the info line.
"""

from __future__ import annotations

import random
import statistics
import time

# median time of one slice on the machine the benchmark was made on, in its
# faster state: times reported "at reference speed" are in those seconds
NOMINAL_S = 0.0017
# slices on each side of a job whose median gives the job's local speed
NEIGHBOURS = 2

_rng = random.Random(20260101)
_WORDS = [tuple(_rng.choice((1, -1, 2, -2, 3, -3, 4, -4)) for _ in range(300))
          for _ in range(6)]


def _slice() -> int:
    seen = {}
    for _ in range(14):
        for w in _WORDS:
            stack = []
            for a in w:
                if stack and stack[-1] == -a:
                    stack.pop()
                else:
                    stack.append(a)
            t = tuple(stack)
            seen[t[:4]] = seen.get(t[:4], 0) + len(t)
    return len(seen)


class Gauge:
    """Slice times taken through a run, in order, and optionally the times
    of the segments of work between them (``start``, then ``tick`` after
    each segment)."""

    def __init__(self):
        self.slices = []
        self.segments = []
        self._start = None

    def sample(self) -> None:
        start = time.perf_counter()
        _slice()
        self.slices.append(time.perf_counter() - start)

    def start(self) -> None:
        self.sample()
        self._start = time.perf_counter()

    def tick(self) -> None:
        """End a segment, take a slice, and start the next segment."""
        self.segments.append(time.perf_counter() - self._start)
        self.start()

    def normalise_jobs(self, times_s):
        """Job times at reference speed.  Slice i was taken just before job
        i and slice i + 1 just after it; each job is scaled by the median of
        the NEIGHBOURS slices on each side of it."""
        if len(self.slices) != len(times_s) + 1:
            raise ValueError(f"{len(self.slices)} slices for {len(times_s)} jobs")
        return [t * NOMINAL_S / statistics.median(
                    self.slices[max(0, i + 1 - NEIGHBOURS):i + 1 + NEIGHBOURS])
                for i, t in enumerate(times_s)]
