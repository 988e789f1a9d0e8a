"""The benchmark's library calls, run once per workload at a small size.

bench/workloads.py calls the public API by keyword (make_engine,
butterfly_apply, simulate_parallel with threads=1, PotentialField.evaluate,
direct_apply). A library change that breaks one of those calls fails here,
in the test suite, rather than only in a benchmark run.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from clock import Clock  # noqa: E402
from workloads import WORKLOADS, draw_inputs, run_repeat, scaled_fourier  # noqa: E402

SMALL = {
    "cheb-2d": dict(N=4),
    "sim-1d": dict(N=64, p=8),
    "id-2d": dict(N=4, p=4),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_repeat_passes_its_gates(name):
    wl = dataclasses.replace(WORKLOADS[name], sources=256, targets=256, **SMALL[name])
    rep = run_repeat(wl, scaled_fourier(wl.N), draw_inputs(wl, np.random.default_rng(7)), Clock())
    assert rep.problems == []
    assert rep.flops > 0
