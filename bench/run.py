"""Seeded benchmark of the bfly butterfly library.

    python3 bench/run.py --workload cheb-2d --seed 1 --seconds 36 --trace 0

Runs one workload of bench/workloads.py through the public API of the
library in this checkout's src/, in this one process, with BLAS and OpenMP
pinned to one thread. After one untimed warm-up it repeats operations on
fresh seeded inputs for --seconds seconds (at least the exact repeats
below) and checks every output against the direct sum.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones below. With --trace 1 each repeat also runs the solve and the
evaluation once more under the span recorder of bench/spans.py, and the
metrics are the per-layer ones; the spans of the last traced repeat go to
.bench_out/ in the checkout.

Each repeat times set-up, solve, and evaluation and the direct sum on each
batch of BATCH targets, each call as one sample. Each end-to-end timing is
the median of its samples scaled to a reference host speed by bench/clock.py,
because other tenants of a small shared machine slow it by up to 2x; the
header lines give the scaled and the raw samples with their median and
quartiles. Per-layer timings are raw and come from the traced repeat with
the fastest solve, so its layer self times add up to its solve time. Values
that depend only on the inputs (rel_err, modeled_s, counts) come from a
fixed number of first repeats, so they repeat exactly for a given seed;
rel_err is the median over their batches of BATCH targets.
"""

from __future__ import annotations

import os
import sys

# Before numpy loads: one BLAS/OpenMP thread, so timings and sums are
# reproducible and the process never runs more threads than cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# rel_err, modeled_s and the counts come from the first EXACT_REPEATS
# repeats, or more if they hold fewer than EXACT_BATCHES target batches, so
# they repeat exactly for a given seed.
EXACT_REPEATS = 4
EXACT_BATCHES = 16

# End-to-end metrics: name -> unit.
END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "eval_s": "s",
    "direct_s": "s",
    "rel_err": "ratio",
    "modeled_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def blas_build(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import numpy as np

    from bfly import direct_apply
    from clock import REF_S, Clock
    from spans import PER_LAYER, SpanRecorder, dump, layer_metrics
    from workloads import BATCH, TIMED, draw_inputs, final_weights, run_repeat, same_weights, scaled_fourier, solve

    wl = WORKLOADS[args.workload]
    phase = scaled_fourier(wl.N)
    rng = np.random.default_rng(args.seed)
    print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: {wl.why}")
    print(
        f"# nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas_build(np)} blas_threads={os.environ['OPENBLAS_NUM_THREADS']} sim_threads=1"
    )
    print(
        f"# d={wl.d} N={wl.N} sources={wl.sources} targets={wl.targets} {wl.engine} "
        f"p={wl.p or 1} rel_err_gate={wl.max_rel_err:g}",
        flush=True,
    )

    # Warm-up: fills the library's lru caches (Chebyshev nodes, child matrices).
    warm = draw_inputs(wl, rng)
    solve(wl, phase, warm)[0].evaluate(warm.targets[:BATCH])
    direct_apply(warm.sources, phase, warm.targets[:BATCH])

    n_exact = max(EXACT_REPEATS, -(-EXACT_BATCHES * BATCH // wl.targets))
    clock = Clock()
    recorder = SpanRecorder() if args.trace else None
    solve_root = "engine.butterfly_apply" if wl.p is None else "parallel.simulate_parallel"
    reps, layers = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        inp = draw_inputs(wl, rng)
        gc.collect()
        t0 = time.perf_counter()
        attempted += 1
        try:
            rep = run_repeat(wl, phase, inp, clock)
            if recorder is not None:
                recorder.reset()
                with recorder.installed():
                    with recorder.span(solve_root):
                        field, _ = solve(wl, phase, inp)
                    with recorder.span("engine.evaluate"):
                        field.evaluate(inp.targets[:BATCH])
                if not same_weights(final_weights(field), rep.weights):
                    rep.problems.append("traced solve differs from untraced solve")
                layers.append(layer_metrics(recorder.spans, solve_root, "engine.evaluate"))
        except Exception:
            # A raising operation counts as failed; the run goes on.
            traceback.print_exc()
            failed += 1
        else:
            if rep.problems:
                print(f"# repeat {attempted} failed: {'; '.join(rep.problems)}", file=sys.stderr)
                failed += 1
            else:
                reps.append(rep)
        elapsed = time.perf_counter() - start
        if attempted >= n_exact and elapsed + (time.perf_counter() - t0) > args.seconds:
            break

    if not reps:
        print(f"# all {attempted} operations failed", file=sys.stderr)
        return 1
    exact = reps[:n_exact]
    med = statistics.median

    def summary(name, values, unit):
        lo, hi = quartiles(values)
        print(f"# {name} median={med(values):.6g} q1={lo:.6g} q3={hi:.6g} min={min(values):.6g} n={len(values)} {unit}")
        print(f"#   samples: {' '.join(f'{v:.4g}' for v in values)}")

    if not args.trace:
        metrics = {name: med(clock.scaled(name)) for name in TIMED}
        metrics.update(
            rel_err=med(e for r in exact for e in r.rel_err),
            modeled_s=med(r.modeled_s for r in exact),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            ok_ratio=(attempted - failed) / attempted,
        )
        print(f"# rel_err per batch, first {len(exact)} repeats: {' '.join(f'{e:.4g}' for r in exact for e in r.rel_err)}")
        for name in TIMED:
            summary(f"{name} scaled", clock.scaled(name), "s")
            summary(f"{name} raw", clock.raw(name), "s")
        units = END_TO_END
    else:
        # Counts take the lower median, so each reads as one repeat's count.
        count = statistics.median_low
        fastest = min(layers, key=lambda lm: lm["trace.solve_s"])
        metrics = {
            name: fastest[name] if PER_LAYER[name][2] else count(lm[name] for lm in layers[:n_exact])
            for name in fastest
        }
        metrics["costs.flops"] = count(r.flops for r in exact)
        metrics["costs.flops_max_rank"] = count(r.flops_max_rank for r in exact)
        metrics["costs.messages_max"] = count(r.messages_max for r in exact)
        metrics["costs.entries_sent"] = count(r.entries_sent for r in exact)
        metrics["costs.s_per_flop"] = med(clock.scaled("solve_s")) / count(r.flops for r in exact)
        metrics["trace.overhead"] = metrics["trace.solve_s"] / min(clock.raw("solve_s"))
        metrics["trace.hooks_missing"] = len(recorder.missing)
        summary("solve_s raw (untraced)", clock.raw("solve_s"), "s")
        summary("trace.solve_s", [lm["trace.solve_s"] for lm in layers], "s")
        for label in sorted(recorder.missing):
            print(f"# hook missing: {label}")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        dump(out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl", recorder.spans)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}

    print(
        f"# reference loop: median={med(clock.readings):.6g} min={min(clock.readings):.6g} "
        f"n={len(clock.readings)} s; scaled times assume {REF_S:g} s"
    )
    print(f"# attempted={attempted} failed={failed} fail_ratio={failed / attempted:g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "bfly" / "__init__.py").is_file():
        print(f"no library source at {SRC / 'bfly'}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
