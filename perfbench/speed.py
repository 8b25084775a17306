"""Machine-speed probe for timing on a shared machine.

On a machine whose cores are shared with other tenants, the same code runs
up to about 1.6 times slower for stretches from a second to minutes, and
faster than usual in others (see README.md).  A probe of fixed work,
independent of flowstate, runs next to every timed call; a call's time is
divided by the probe's slow-down against its reference time, so the
throughputs are stated at the reference machine speed.  The raw times are
kept beside the corrected ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median times of the probe's two parts on the reference machine, over the
# 4616 probes of 24 benchmark runs (README.md), with the arrays built below.
COMPUTE_REFERENCE_S = 1.05e-3
MEMORY_REFERENCE_S = 3.95e-3


class Probe:
    """Two parts of fixed work that other tenants slow as they slow the
    pipeline's calls.  Compute: short numpy operations on small arrays
    dispatched from Python, plus small matmuls, about 1 ms.  Memory:
    elementwise passes over three 8 MB arrays, beyond a core's L2 cache as
    the SSM's dense scan tensors are, about 4 ms.  Tenants that contend for
    the shared cache slow the second part and not the first, so the
    slow-down is the geometric mean of the two."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((256, 4))
        self._b = rng.random((256, 4))
        self._m = rng.random((48, 48))
        self._x = rng.random(2**20)
        self._y = rng.random(2**20)
        self._z = np.empty(2**20)
        self.last = self.run()

    def run(self) -> float:
        """Slow-down against the reference machine, from the fastest of
        three back-to-back runs of each part: the first one after a timed
        call also pays for caches that call evicted, which is not the
        machine's speed."""
        compute = min(self._compute() for _ in range(3)) / COMPUTE_REFERENCE_S
        memory = min(self._memory() for _ in range(3)) / MEMORY_REFERENCE_S
        return math.sqrt(compute * memory)

    def _compute(self) -> float:
        t0 = time.perf_counter()
        a, b = self._a, self._b
        for _ in range(100):
            c = np.exp(-(a * b + a))
            c.sum(axis=1)
        for _ in range(40):
            self._m @ self._m
        return time.perf_counter() - t0

    def _memory(self) -> float:
        t0 = time.perf_counter()
        for _ in range(2):
            np.multiply(self._x, self._y, out=self._z)
            np.add(self._z, self._x, out=self._y)
        return time.perf_counter() - t0


class Timer:
    """Times calls and keeps each with the probe slow-down around it."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.raw: list[float] = []
        self.slowdown: list[float] = []

    def __enter__(self):
        self._before = self.probe.last
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._t0
        if exc[0] is None:
            self.probe.last = self.probe.run()
            self.raw.append(elapsed)
            self.slowdown.append((self._before + self.probe.last) / 2)

    @property
    def corrected(self) -> list[float]:
        return [t / s for t, s in zip(self.raw, self.slowdown)]

    def median(self) -> float:
        """Median call time at the reference speed."""
        return statistics.median(self.corrected)

    def median_raw(self) -> float:
        return statistics.median(self.raw)


_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def summarize(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten values beyond it."""
    out = {"value": statistics.median(values), "count": len(values)}
    n = len(values)
    if n >= 40:
        q = next(q for q in _TAILS if round(n * (100 - q) / 100, 6) >= 10)
        cuts = statistics.quantiles(values, n=1000, method="inclusive")
        out[f"p{q:g}"] = cuts[round(q * 10) - 1]
    return out
