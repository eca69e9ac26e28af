"""Host-speed reference: scale request timings to one nominal speed.

The virtual machines this benchmark runs on change speed by up to 1.7x
within seconds (the host's other tenants), and request timings move
with them.  A fixed reference kernel, made of the benchmark's own code
and never of the program's, is timed between requests.  Each request's
wall time is multiplied by the host's speed relative to nominal, taken
from the reference samples just before and just after the request.  A
program change moves the request times and not the reference, so it
shows in full; host drift moves both and cancels.

The kernel has the two kinds of work the program does: a dense forward
recursion over small arrays in a Python loop (the exact coverage oracle
of ``checks``), and sorts and cumulative sums over a larger array (like
the simulation harness).  A workload weighs the two parts by what it
runs.  Fresh-interpreter imports do not follow the kernel's speed, so
set-up times are not scaled.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

import checks

NOMINAL_S = (0.0028, 0.0011)
"""Times of the recursion part and the vector part that scaled timings
are expressed at: near the parts' medians on a 2-vCPU x86-64 VM."""

EVERY_S = 0.02
"""A reference sample is taken before a request once this much request
time has passed since the last one."""

WINDOW = 1
"""Samples on each side of a request whose median gives its speed: the
host's speed changes within a second, so only the nearest count."""

_N = 40
_GRID = np.arange(1, _N + 1) / _N
_LO = np.maximum(np.arange(1, _N + 1) - 8, 0)
_HI = np.minimum(np.arange(1, _N + 1) + 8, _N)
_BLOCK = np.random.default_rng(0).random((64, 256))


def reference_parts() -> tuple[float, float]:
    """Seconds the recursion part and the vector part take now."""
    t0 = time.perf_counter()
    checks.coverage_one_sample(_N, _GRID, _LO, _HI)
    t1 = time.perf_counter()
    for _ in range(8):
        np.cumsum(np.sort(_BLOCK, axis=1), axis=1)
    return t1 - t0, time.perf_counter() - t1


def relative_speed(parts, weights) -> float:
    """Host speed relative to nominal (above 1 is faster) from the
    times of one reference sample's parts."""
    return sum(w * t for w, t in zip(weights, NOMINAL_S)) / sum(w * t for w, t in zip(weights, parts))


class HostSpeed:
    """Reference samples interleaved with a run's requests.  ``weights``
    weigh the recursion and the vector part of each sample."""

    def __init__(self, weights=(1.0, 1.0)):
        self.weights = weights
        self.samples: list[tuple[int, float]] = []
        """(index of the next request, speed relative to nominal)"""
        self.parts: list[tuple[float, float]] = []
        self._since = EVERY_S

    def _sample(self, index: int) -> None:
        parts = reference_parts()
        self.parts.append(parts)
        self.samples.append((index, relative_speed(parts, self.weights)))

    def current_scale(self) -> float:
        return self.samples[-1][1]

    def before_request(self, index: int) -> None:
        if self._since >= EVERY_S:
            self._sample(index)
            self._since = 0.0

    def after_request(self, latency: float) -> None:
        self._since += latency

    def finish(self, index: int) -> None:
        """A last sample, so that the last requests have one after them."""
        self._sample(index)

    def scales(self, count: int) -> list[float]:
        """The local host speed (the median of the samples in the window
        around each request), for requests 0 .. count - 1."""
        starts = [i for i, _ in self.samples]
        speeds = [v for _, v in self.samples]
        out = []
        for i in range(count):
            k = bisect.bisect_right(starts, i) - 1
            out.append(statistics.median(speeds[max(0, k - WINDOW + 1) : k + WINDOW + 1]))
        return out
