"""Reference kernels that measure how fast the host runs at the moment.

The benchmark gets a few cores of a shared host, and the speed of those
cores drifts by more than a half over minutes as other work comes and
goes.  A run therefore times a fixed reference kernel between its ops,
and multiplies the time of each op by

    REF_S[kernel] / (median time of the kernel around that op),

which gives the time the op would have taken with the host at its
reference speed.  The kernels are benchmark code, not package code, so a
change to the program moves the scaled times exactly as it moves the raw
ones.  The unscaled figures are printed above the result line.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# Median kernel times on a 2-vCPU Xeon host, Python 3.11.7, numpy 2.4.6.
REF_S = {"compute": 0.0031, "spawn": 0.15}


def compute():
    """Twelve products of two 40-term polynomials mod a prime, in Python:
    the integer and list work of the package's scalar kernels."""
    a, b, p = list(range(1, 41)), list(range(7, 47)), 1000003
    out = []
    for _ in range(12):
        out = [0] * 79
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def spawn(env):
    """A fresh interpreter that imports numpy: the start every CLI command pays."""
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True)


class Meter:
    """Times `kernel` at every `every`-th tick.

    `scale(tick)` is REF_S over the median kernel time of the samples
    within `window` samples of that tick: the speed of the host around one
    op, as the host's load changes within a run too.
    """

    def __init__(self, kernel, every=1, env=None, window=5):
        self.kernel = kernel
        self.every = every
        self.env = env
        self.window = window
        self.ticks = 0
        self.samples = []  # (tick, kernel seconds)

    def tick(self):
        """Count a tick, time the kernel if it is due; returns the tick."""
        tick = self.ticks
        self.ticks += 1
        if tick % self.every == 0:
            t0 = time.perf_counter()
            if self.kernel == "spawn":
                spawn(self.env)
            else:
                compute()
            self.samples.append((tick, time.perf_counter() - t0))
        return tick

    def median(self):
        """Median kernel time over the whole run."""
        return statistics.median(s for _t, s in self.samples)

    def scale(self, tick):
        near = [s for t, s in self.samples if abs(t - tick) <= self.window * self.every]
        return REF_S[self.kernel] / statistics.median(near)
