"""The host's current speed, read from fixed reference kernels.

On a shared virtual machine the CPU runs slower for spells of seconds to
minutes, and every timing of identical code moves with it. The benchmark runs
a reference kernel between operations and scales each timing by

    reference time / median kernel time around the timing,

so a figure reads as it would on a host where the kernel takes its reference
time. The kernels use only Python, numpy and scipy, never the package, so a
change to the package moves its timings and not the scale. There are two, one
for each kind of work the workloads do:

- ``scalar``: scalar Python arithmetic and calls, then numpy counter-based
  draws, ``ndtri`` and updates of cache-sized vectors, as in ``book`` and
  ``calibrate``. Host speed moves within a second there, so each timing is
  scaled by the samples from ``window_ns`` before it to ``window_ns`` after.
- ``stream``: the same numpy steps on freshly allocated arrays of several
  megabytes, read with a stride, as in the MC chunks of ``validate`` and
  ``mc_full``. Their operations take seconds, so every timing of a run is
  scaled by the median of all the run's samples.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtri

EVERY_NS = 250_000_000
STREAM_WORDS = 1 << 21
STREAM_WIDTH = 64


def scalar_kernel() -> float:
    acc = 0.0
    for i in range(4000):
        acc += math.exp(-i * 1e-4) * math.log(i + 1.5) + math.sqrt(i)
    uniform = (np.random.Philox(key=1).random_raw(40000) >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54
    normals = ndtri(uniform)
    state = np.zeros(4000)
    for j in range(30):
        state = state * 0.99 + 0.1 * normals[j * 1000:j * 1000 + 4000]
    return acc + float(state[0])


def stream_kernel() -> float:
    raw = np.random.Philox(key=1).random_raw(STREAM_WORDS)
    normals = ndtri((raw >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54).reshape(-1, STREAM_WIDTH)
    state = np.zeros(2 * normals.shape[0])
    for j in range(0, STREAM_WIDTH, 4):
        e = normals[:, j]
        state += 0.01 * state + 0.1 * np.concatenate([e, -e])
    return float(state[0])


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], float]
    reference_ns: int
    window_ns: int | None  # None: scale by the whole run's samples
    max_burst: int  # samples in a row after a long operation


KERNELS = {
    "scalar": Kernel(scalar_kernel, 3_000_000, 600_000_000, 5),
    "stream": Kernel(stream_kernel, 100_000_000, None, 1),
}


class SpeedLog:
    """Kernel timings of one run, as (mid-point ns, duration ns)."""

    def __init__(self, kind: str = "scalar") -> None:
        self.kernel = KERNELS[kind]
        self.at: list[int] = []
        self.ns: list[int] = []
        self._last = 0
        self.kernel.run()  # the first call pays for lazy set-up in numpy and scipy

    def sample(self) -> None:
        t0 = time.perf_counter_ns()
        self.kernel.run()
        t1 = time.perf_counter_ns()
        self.at.append((t0 + t1) // 2)
        self.ns.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        """One sample per EVERY_NS since the last one, at most max_burst in a row.

        A long operation is thus followed by several samples, and its scale
        does not rest on one noisy kernel time.
        """
        due = (time.perf_counter_ns() - self._last) // EVERY_NS
        for _ in range(min(self.kernel.max_burst, due)):
            self.sample()

    def factor(self, start: int, end: int | None = None) -> float:
        """Scale for a timing from `start` to `end` ns: the median kernel time around it."""
        window = self.kernel.window_ns
        if window is None:
            return self.overall()
        end = start if end is None else end
        lo = bisect.bisect_left(self.at, start - window)
        hi = bisect.bisect_right(self.at, end + window)
        if lo == hi:  # no sample in the window: the nearest one
            mid = (start + end) // 2
            i = min(range(len(self.at)), key=lambda k: abs(self.at[k] - mid))
            lo, hi = i, i + 1
        return self.kernel.reference_ns / statistics.median(self.ns[lo:hi])

    def overall(self) -> float:
        """One scale for the whole run."""
        return self.kernel.reference_ns / statistics.median(self.ns)
