"""The benchmark's library calls, run once per workload at a small size.

bench/workloads.py calls the public API by keyword (make_engine,
butterfly_apply, simulate_parallel with threads=1, PotentialField.evaluate,
direct_apply). A library change that breaks one of those calls fails here,
in the test suite, rather than only in a benchmark run. So does a change
that moves a name the traced run's hooks (bench/spans.py) wrap.
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
from spans import HOOKS, SpanRecorder, _hook_label, _resolve  # noqa: E402
from workloads import WORKLOADS, draw_inputs, run_repeat, scaled_fourier, solve  # noqa: E402

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


# Hook targets the library no longer has, each recorded in CHANGES.md with
# the change that removed it. The traced run reports them missing and goes
# on; a refactor that moves any other hooked name fails here instead.
KNOWN_MISSING = {
    "bfly.chebyshev.kernel_matrix",
    "bfly.engine.ChebEngine.pre_stage",
    "bfly.engine._translate_local",
    "bfly.parallel._translate_local",
    "bfly.parallel.keys_in_region",
    "bfly.engine.SourceSet.bin_by_leaf",
    "bfly.parallel.sum_scatter",
    "bfly.chebyshev._row_contribution",
    "bfly.chebyshev.middle_switch",
    "bfly.chebyshev.evaluate_block",
    "bfly.engine.build_translation_id",
}


def test_bench_hooks_resolve():
    missing = {_hook_label(h) for h in HOOKS if _resolve(h) is None}
    assert missing == KNOWN_MISSING


def test_traced_id_solve_reaches_its_hooks():
    wl = dataclasses.replace(WORKLOADS["id-2d"], sources=256, targets=256, **SMALL["id-2d"])
    inp = draw_inputs(wl, np.random.default_rng(11))
    recorder = SpanRecorder()
    with recorder.installed():
        solve(wl, scaled_fourier(wl.N), inp)
    names = {span[0] for span in recorder.spans}
    assert {"lowrank.id", "phases.kernel_matrix", "engine.init"} <= names
    assert recorder.missing == KNOWN_MISSING  # no probe failed on the calls it saw


def test_traced_cheb_solve_reaches_its_hooks():
    # a hooked name that still resolves but is no longer called through its
    # module attribute would leave its span out here
    wl = dataclasses.replace(WORKLOADS["cheb-2d"], sources=256, targets=256, **SMALL["cheb-2d"])
    inp = draw_inputs(wl, np.random.default_rng(13))
    recorder = SpanRecorder()
    with recorder.installed():
        solve(wl, scaled_fourier(wl.N), inp)
    names = {span[0] for span in recorder.spans}
    assert {"chebyshev.init", "chebyshev.translate", "engine.init"} <= names
    assert recorder.missing == KNOWN_MISSING  # no probe failed on the calls it saw
