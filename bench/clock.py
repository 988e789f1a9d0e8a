"""Timing that cancels the speed of a shared host.

Other tenants of a small shared machine slow every process on it by up to 2x,
in swings of seconds to minutes. The benchmark's process is not descheduled
(its CPU time grows just like its wall time); the core itself runs slower.

The clock measures the host's current speed with a fixed reference loop of
the kind of work the library spends its time on: interpreter steps and numpy
calls on arrays of a few dozen entries. It runs the loop right before and
right after each timed call and scales the call's wall time by
REF_S / (mean of the two loop times). A scaled time is what the call would
take on a host on which the loop takes REF_S. A change to the program moves
it just as it moves the raw time; a change in the host's speed cancels.

In five 36-second runs per workload on a 2-core Xeon, the quartile spread of
the run medians of solve_s was 19% raw and 6-9% scaled on cheb-2d and sim-1d.
On id-2d, whose 5-second set-up and solve average the swings out, it is about
10% either way.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

REF_ROUNDS = 800  # iterations of the reference loop
REF_S = 0.05  # nominal time of the reference loop: the scale of scaled times

_rng = np.random.default_rng(20130517)
_X = _rng.random((36, 2))
_Y = _rng.random((36, 2))
_M = _rng.standard_normal((36, 36)) + 1j * _rng.standard_normal((36, 36))


def reference_seconds() -> float:
    """Wall time of the reference loop, a fixed amount of work."""
    t = time.perf_counter()
    table = {}
    for i in range(REF_ROUNDS):
        kernel = np.exp(1j * (64.0 * np.pi) * (_X @ _Y.T))
        table[(i % 61, i % 7)] = _M @ kernel[:, i % 36]
    return time.perf_counter() - t


class Clock:
    """Times calls under a name and scales each by the reference loop
    around it."""

    def __init__(self) -> None:
        self.readings = []  # reference loop times, in the order taken
        self.samples: Dict[str, list] = {}  # name -> [(raw s per call, index of reading before)]
        self.mark()

    def mark(self) -> None:
        """Take a fresh reading before the next timed call."""
        self.readings.append(reference_seconds())

    def timed(self, name: str, fn: Callable, *args, min_s: float = 0.0):
        """Call fn(*args), again until min_s has passed, record the wall
        time per call under name, and return the last output."""
        calls = 0
        t = time.perf_counter()
        while True:
            out = fn(*args)
            calls += 1
            raw = time.perf_counter() - t
            if raw >= min_s:
                break
        self.samples.setdefault(name, []).append((raw / calls, len(self.readings) - 1))
        self.mark()
        return out

    def raw(self, name: str) -> List[float]:
        return [t for t, _ in self.samples[name]]

    def scaled(self, name: str) -> List[float]:
        """Each sample times REF_S over the mean of the readings around it."""
        r = self.readings
        return [t * REF_S / (0.5 * (r[i] + r[i + 1])) for t, i in self.samples[name]]
