"""Host speed reference for the timing metrics.

The shared virtual machines this benchmark runs on execute the same code up
to 1.7 times faster or slower for periods from under a second to minutes, as
neighbouring tenants come and go.  To keep that out of the timing metrics,
the benchmark times a fixed pure-Python kernel after every request, outside
the timed region: JSON parsing, dictionary, sorting and set operations, the
kinds of work cutplan does, but none of cutplan's code.  A request's latency
is then scaled by ``REFERENCE_S / t``, where ``t`` is the mean kernel time
within ``WINDOW_S`` of the request (or of the nearest samples on either
side): timings read as they would on a host where the kernel takes
``REFERENCE_S``.  A change to cutplan leaves the kernel alone, so it moves
the scaled timings as much as the raw ones.

Each sample runs the kernel twice and times the second run, whose data and
code are already in the CPU caches, so that how much of the caches the
previous request evicted does not change it.  The kernel runs with the
garbage collector paused, so that neither the collector's state nor a
program's gc settings change its time either.
"""

from __future__ import annotations

import bisect
import gc
import json
import random
import statistics
import time

# Median kernel time on the machine the benchmark was tuned on (Intel Xeon,
# 2.0 GHz nominal, CPython 3.11).  Any constant would do: it fixes the unit.
REFERENCE_S = 0.001
# A mean over a short window follows the host best: over six runs each of
# cold_solve and replan_hot, scaled throughput spread (IQR over median) 0.009
# to 0.015 with a mean over 0.25 s, 0.012 to 0.018 with a mean over 1 s,
# 0.036 to 0.054 with a median over 1 s, and 0.069 to 0.082 unscaled.
WINDOW_S = 0.25
# Sample at most this often: after every request for the slower workloads,
# every second or third one for replan_hot.
SAMPLE_INTERVAL_S = 0.02

_rng = random.Random("perfbench/speed")
_DOCUMENT = json.dumps({"k%d" % i: [i, str(i) * 3, {"x": i / 7}] for i in range(300)})
_SETS = [frozenset(_rng.sample(range(12), _rng.choice((2, 3, 4)))) for _ in range(90)]


def _parse():
    doc = json.loads(_DOCUMENT)
    total = sum(len(k) + v[0] * 3 % 7 for k, v in doc.items())
    return total, sorted(doc, key=lambda k: doc[k][2]["x"])


def _minimalize():
    family = set(_SETS)
    return [s for s in family if not any(o < s for o in family)]


def kernel_seconds() -> float:
    """Time the second of two runs of the reference kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _parse()
        _minimalize()
        start = time.perf_counter()
        _parse()
        _minimalize()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Kernel times sampled over a run, and the scale factors they give."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self, count: int = 1):
        for _ in range(count):
            self.seconds.append(kernel_seconds())
            self.times.append(time.perf_counter())

    def sample_if_due(self):
        if time.perf_counter() - self.times[-1] >= SAMPLE_INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float | None = None) -> float:
        """REFERENCE_S over the mean kernel time in [start - WINDOW_S, end + WINDOW_S].

        The window is widened to take in at least the last sample before
        ``start`` and the first after ``end``.
        """
        end = start if end is None else end
        lo = min(bisect.bisect_left(self.times, start - WINDOW_S), max(bisect.bisect_left(self.times, start) - 1, 0))
        hi = max(bisect.bisect_right(self.times, end + WINDOW_S), bisect.bisect_right(self.times, end) + 1)
        return REFERENCE_S / statistics.fmean(self.seconds[lo:hi])

    def median_ms(self) -> float:
        return 1000.0 * statistics.median(self.seconds)
