"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; each test
prints `[criterion N] PASS ...` or `[criterion N] FAIL ...` and then asserts.
"""

from __future__ import annotations

import json
import time

import numpy as np

from bfly.cli import main
from bfly.engine import SourceSet, direct_apply, rel_sup_error
from bfly.geometry import (
    init_bisection_stacks,
    pop_push,
    region_coords,
    stage_schedule,
)
from bfly.lowrank import build_id
from bfly.parallel import butterfly_apply, simulate_parallel
from bfly.phases import get_phase


def bit_reverse(k: int, nbits: int) -> int:
    """k with its low nbits bits in reverse order."""
    return int(format(k, f"0{nbits}b")[::-1], 2)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n}: {detail}"


def drawn_problem(seed: int, n: int, d: int, m: int):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(size=(n, d))
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    return SourceSet(pos, g), rng.uniform(size=(m, d))


def oracle_error(phase_name: str, d: int, N: int, q: int, n: int, m: int, seed: int):
    src, tgts = drawn_problem(seed, n, d, m)
    phase = get_phase(phase_name)
    t0 = time.perf_counter()
    field = butterfly_apply(src, phase, N, q=q)
    approx = field.evaluate(tgts)
    elapsed = time.perf_counter() - t0
    err = rel_sup_error(approx, direct_apply(src, phase, tgts))
    return err, elapsed


def test_criterion_1_fourier_accuracy():
    err, elapsed = oracle_error("fourier", 1, 64, 8, 256, 100, seed=1)
    ok = err <= 1e-5 and elapsed < 10.0
    report(1, ok, f"fourier d=1 N=64 q=8: rel sup error {err:.3e} (<=1e-05), {elapsed:.2f}s (<10s)")


def test_criterion_2_hyperbolic_radon_accuracy():
    err, elapsed = oracle_error("hyp-radon", 2, 16, 4, 512, 100, seed=2)
    ok = err <= 1e-2 and elapsed < 60.0
    report(2, ok, f"hyp-radon d=2 N=16 q=4: rel sup error {err:.3e} (<=1e-02), {elapsed:.2f}s (<60s)")


def test_criterion_3_generalized_radon_accuracy():
    err, elapsed = oracle_error("gen-radon", 3, 8, 5, 256, 100, seed=3)
    ok = err <= 2e-2 and elapsed < 300.0
    report(3, ok, f"gen-radon d=3 N=8 q=5: rel sup error {err:.3e} (<=2e-02), {elapsed:.2f}s (<300s)")


def test_criterion_4_parallel_equals_sequential():
    worst = 0.0
    runs = 0
    for d, N in ((1, 8), (1, 16), (2, 8), (2, 16)):
        src, _ = drawn_problem(40 + d, 200, d, 1)
        phase = get_phase("fourier")
        seq = butterfly_apply(src, phase, N, q=4)
        keys = seq.target_keys()
        scale = max(np.max(np.abs(seq.weight_vector(k))) for k in keys)
        logmax = (N**d).bit_length() - 1
        for logp in range(logmax + 1):
            par = simulate_parallel(src, phase, N, p=1 << logp, q=4)
            diff = max(
                np.max(np.abs(par.field.weight_vector(k) - seq.weight_vector(k)))
                for k in keys
            )
            worst = max(worst, diff / scale)
            runs += 1
    ok = worst <= 1e-12
    report(4, ok, f"{runs} runs over d in {{1,2}}, N in {{8,16}}, all p: worst weight mismatch {worst:.3e} (<=1e-12)")


def comm_config_pool():
    pool = []
    for N in (4, 8, 16, 32):
        for logp in range(1, N.bit_length()):
            pool.append((1, N, 1 << logp))
    for N in (4, 8, 16):
        top = (N * N).bit_length() - 1
        for logp in range(1, top + 1):
            pool.append((2, N, 1 << logp))
    for N, plist in ((4, (8, 64)), (8, (8, 64, 512))):
        for p in plist:
            pool.append((3, N, p))  # exact multiples of d bits remain local
    for N, plist in ((4, (2, 4, 16, 32)), (8, (2, 4))):
        for p in plist:
            pool.append((3, N, p))  # a partial stage of d - (g mod d) bits
    return pool


def test_criterion_5_communication_counts(reduce_scatter_rows):
    pool = comm_config_pool()
    q = 2
    checked = 0
    for idx, (d, N, p) in enumerate(pool):
        src, _ = drawn_problem(500 + idx, 50, d, 1)
        reduce_scatter_rows.clear()
        par = simulate_parallel(src, get_phase("fourier"), N, p=p, q=q)
        # closed form: each rank's block leaves g = log2(N^d/p) bits local;
        # when g mod d is not 0, one partial stage moves d - (g mod d) bits
        logp = p.bit_length() - 1
        g = d * (N.bit_length() - 1) - logp
        s = d - g % d if g % d else 0
        full = (logp - s) // d
        comm = full + (1 if s else 0)
        expected_msgs = s + d * full
        assert expected_msgs == logp
        for led in par.ledgers:
            assert led.messages == expected_msgs, (d, N, p, led.messages)
        r = q**d
        block = r * (N**d // p)
        nonzero = [k for k in par.schedule if k]
        assert nonzero == ([s] if s else []) + [d] * full
        rows = [tuple(int(v) for v in line.split(",")) for line in reduce_scatter_rows]
        assert len(rows) == comm * p
        for level, rank, k, entries in rows:
            assert k == par.schedule[level]
            assert entries == ((1 << k) - 1) * block, (d, N, p, level, entries)
        checked += 1
    report(
        5, checked == len(pool) >= 20,
        f"messages = s + d*full and per-stage entries = (2^d-1)*r*N^d/p on {checked}/{len(pool)} configs",
    )


def test_criterion_6_distribution_invariants():
    # cardinality at every boundary, walked straight off the bisection stacks
    for d, N, p in ((1, 16, 4), (2, 8, 16), (2, 16, 64), (3, 4, 8)):
        L = N.bit_length() - 1
        schedule = stage_schedule(N, d, p)
        dx, dy = init_bisection_stacks(d, p)
        per_rank = N**d // p
        for boundary in range(L + 1):
            for rank in range(p):
                nx = np.prod([b - a for a, b in region_coords(dx, rank, d, boundary)])
                ny = np.prod([b - a for a, b in region_coords(dy, rank, d, L - boundary)])
                assert nx * ny == per_rank, (d, N, p, boundary, rank)
            if boundary < L:
                dx, dy = pop_push(dx, dy, schedule[boundary])
    # final 1D ownership at p = N is the bit reversal of the box index
    ok_rev = True
    for N in (8, 16):
        src, _ = drawn_problem(60 + N, 64, 1, 1)
        par = simulate_parallel(src, get_phase("fourier"), N, p=N, q=3)
        L = N.bit_length() - 1
        assert par.owners.shape == (N,)
        ok_rev &= all(par.owners[c] == bit_reverse(c, L) for c in range(N))
    report(6, ok_rev, "N^d/p pairs per rank at every stage boundary; 1D p=N ownership is bit-reversed")


def test_criterion_7_id_backend():
    rng = np.random.default_rng(7)
    worst_ratio = 0.0
    for trial in range(8):
        n = int(rng.integers(12, 65))
        k = int(rng.integers(3, 9))
        sig = np.concatenate([np.logspace(0, -4, k), np.logspace(-7, -12, n - k)])
        u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        M = (u * sig) @ v.conj().T
        dec = build_id(M, 1e-6)
        sv = np.linalg.svd(M, compute_uv=False)
        sigma_r = sv[dec.rank] if dec.rank < n else sv[-1]
        err = np.max(np.abs(M - M[:, dec.column_indices] @ dec.matrix))
        worst_ratio = max(worst_ratio, err / (100 * sigma_r))
        assert np.array_equal(
            dec.matrix[:, dec.column_indices], np.eye(dec.rank, dtype=complex)
        )
    src, tgts = drawn_problem(70, 256, 1, 100)
    phase = get_phase("fourier")
    f_cheb = butterfly_apply(src, phase, 16, q=8).evaluate(tgts)
    f_id = butterfly_apply(src, phase, 16, backend="id", tol=1e-7).evaluate(tgts)
    agree = float(np.max(np.abs(f_cheb - f_id)) / np.max(np.abs(f_cheb)))
    ok = worst_ratio <= 1.0 and agree <= 1e-5
    report(7, ok, f"reconstruction <= 100*sigma_r (worst ratio {worst_ratio:.3f}), exact identity subblock, backend agreement {agree:.3e} (<=1e-05)")


def test_criterion_8_complexity_scaling():
    phase = get_phase("fourier")
    q, r = 8, 8
    consts = []
    for N in (16, 32, 64):
        src, _ = drawn_problem(80, 512, 1, 1)
        field = butterfly_apply(src, phase, N, q=q)
        L = N.bit_length() - 1
        consts.append(field.ledger.flops / (r * r * N * L))
    spread = max(consts) / min(consts)
    src2, _ = drawn_problem(81, 512, 2, 1)
    par = simulate_parallel(src2, get_phase("hyp-radon"), 16, p=16, q=4)
    flops = [led.flops for led in par.ledgers]
    balance = max(flops) / min(flops)
    ok = spread <= 4.0 and balance <= 4.0
    report(8, ok, f"flops/(r^2 N log N) spread {spread:.2f}x over N in {{16,32,64}} (<=4x); rank balance {balance:.2f}x (<=4x)")


def test_criterion_9_determinism(tmp_path):
    vargs = ["verify", "--dim", "1", "--log2n", "3", "--sources", "64",
             "--targets", "20", "--procs", "4"]
    sargs = ["scale", "--dim", "1", "--log2n", "3", "--sources", "64",
             "--procs", "1,2,8"]

    def run(args, name):
        out = tmp_path / name
        code = main(args + ["--output", str(out)])
        assert code == 0
        return out.read_bytes()

    ok = True
    for label, args in (("verify", vargs), ("scale", sargs)):
        ok &= run(args, f"{label}_a.csv") == run(args, f"{label}_b.csv")
    report(9, ok, "verify and scale outputs byte-identical across repeats")
