"""Host speed, measured with a fixed calibration kernel, for timing on a shared host.

On a shared virtual machine other tenants change the speed of a vCPU for
seconds to minutes.  On a 2-vCPU VM (Xeon, 2.1 GHz) a pure-Python loop ran up
to 1.6x slower for minutes at a time while the guest showed no steal time, and
CPU time slowed as much as wall time.  A time taken there follows the host's
load more than the program.

The kernel below does a fixed mix of the kinds of work the program does: an
interpreter loop, numpy vector work and sparse triangular solves.  It does not
depend on the package, so a change to the package cannot change it.  It is
timed before and after each timed repetition and, through a hook the caller
installs, every ``INTERVAL_S`` during it.  A repetition's time at reference
speed is its wall time, less the kernel's own runs inside it, times the mean
of ``REF_S / kernel time`` over those samples: the time the repetition would
take on a host where the kernel takes ``REF_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# About the kernel's fastest time on a 2-vCPU Xeon VM at 2.1 GHz (0.0118 s in
# 928 samples); any fixed value works, this one keeps reference times close
# to the wall times of an idle host.
REF_S = 0.012
INTERVAL_S = 0.5


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random(60_000)
        n = 120
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        self._lu = spla.splu((sp.kron(line, eye) + sp.kron(eye, line)).tocsc())
        self._b = rng.random(n * n)
        self.samples: list[tuple[float, float]] = []  # (start, end) of each kernel run

    def _kernel(self) -> None:
        total = 0.0
        for i in range(30_000):
            total += i * 0.5
        for _ in range(10):
            np.sort(self._x)
            np.exp(-self._x).sum()
        for _ in range(5):
            self._lu.solve(self._b)

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        self.samples.append((start, time.perf_counter()))

    def maybe_sample(self) -> None:
        """Hook for calls inside a timed repetition: sample every ``INTERVAL_S``."""
        if self.samples and time.perf_counter() - self.samples[-1][1] >= INTERVAL_S:
            self.sample()

    def spent_in(self, start: float, end: float) -> float:
        """Time the kernel ran within [start, end]."""
        return sum(e - s for s, e in self.samples if start <= s and e <= end)

    def timed(self, repetition) -> tuple[float, float]:
        """Run ``repetition``, which returns its own wall time, between two
        samples.  Return its wall time less the kernel runs inside it, and
        the factor that turns that into time at reference speed."""
        first = len(self.samples)
        self.sample()
        wall = repetition()
        self.sample()
        taken = self.samples[first:]
        wall -= sum(e - s for s, e in taken[1:-1])
        return wall, statistics.fmean(REF_S / (e - s) for s, e in taken)

    def kernel_times(self) -> list[float]:
        return [e - s for s, e in self.samples]
