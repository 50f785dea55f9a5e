"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose speed moves in phases: on the
2-core shared host where it was defined, a fixed computation switched
between two speeds about 1.6x apart within seconds, and its median over
a minute shifted by up to 1.7x within an hour.  CPU time tracks wall
time there, so the phases are the host's speed, not scheduling.

So every measured set-up and round is bracketed by a fixed reference
computation, and its time is scaled by `NOMINAL_S` over the mean of the
two reference times around it.  The result is in seconds at a nominal
host speed: the seconds the measured work would take on a host where
the reference computation takes `NOMINAL_S`.  The raw seconds are
reported next to it.

The reference computation is numpy work of the kinds the workloads do
(a 64x128 FFT and Legendre-style round trip, then pointwise algebra).
It does not use icflab, so no change to the program moves it.  Changing
it, or `NOMINAL_S`, rescales every timing and needs a new baseline.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.1
ITERATIONS = 100

_rng = np.random.default_rng(0)
_TABLE = _rng.normal(size=(65, 65, 64))     # (m, l, theta)
_F = _rng.normal(size=(64, 128))
_G = _rng.normal(size=(64, 128)) + 3.0


def reference_s(iterations: int = ITERATIONS) -> float:
    """Seconds taken by the fixed reference computation."""
    t0 = time.perf_counter()
    x = _F
    for _ in range(iterations):
        s = np.fft.rfft(x, axis=1)[:, :65]
        c = np.einsum("mlt,tm->ml", _TABLE, s.real)
        y = np.fft.irfft(np.einsum("mlt,ml->tm", _TABLE, c), n=128, axis=1)
        g = np.sqrt(1.0 + y * y + _G * _G)
        h = (_G - y) / g + np.sin(y) * np.cos(_G) / (g * g)
        for _k in range(10):
            h = 0.5 * h + 0.25 * _G - 0.1 * y
        x = _F + 1e-3 * h
    return time.perf_counter() - t0


class HostClock:
    """Times work between two runs of the reference computation; the run
    after one piece of work is the run before the next."""

    def __init__(self, reference=reference_s):
        self.reference = reference
        self.reference()                    # warm-up: FFT plans, caches
        self.last = self.reference()

    def measure(self, fn, *args):
        """Run `fn(*args)`; returns its result, its wall time in seconds,
        and the factor that turns seconds into nominal seconds."""
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        before, self.last = self.last, self.reference()
        return result, wall, NOMINAL_S / (0.5 * (before + self.last))
