"""Distributed-traversal simulator: equivalence with the sequential engine,
reduce-scatter accounting, ownership layout, and the cost model."""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest

import bfly.parallel
from bfly.chebyshev import cheb_grid
from bfly.costs import CostLedger, CostParams
from bfly.engine import IdEngine, LevelBlock, SourceSet, butterfly_apply, direct_apply, rel_sup_error
from bfly.geometry import BoxRegion, DyadicKey, InvalidProcessCountError, leaf_coords, offset_index, present_children
from bfly.lowrank import build_id, build_translation_id
from bfly.parallel import ledger_report, modeled_time, simulate_parallel, sum_scatter
from bfly.phases import get_phase, kernel_matrix


def bit_reverse(k: int, nbits: int) -> int:
    """k with its low nbits bits in reverse order."""
    return int(format(k, f"0{nbits}b")[::-1], 2)


def random_sources(rng, n, d=1):
    pos = rng.uniform(size=(n, d))
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    return SourceSet(pos, g)


def fresh_ledgers(members):
    return {m: CostLedger(CostParams()) for m in members}


# ---------------------------------------------------------------------------
# sum_scatter
# ---------------------------------------------------------------------------


def test_sum_scatter_pairwise():
    a = [np.array([1.0 + 0j]), np.array([2.0 + 0j])]
    b = [np.array([10.0 + 0j]), np.array([20.0 + 0j])]
    leds = fresh_ledgers([0, 1])
    out = sum_scatter({0: a, 1: b}, leds)
    assert np.allclose(out[0], [11.0])
    assert np.allclose(out[1], [22.0])
    for led in leds.values():
        assert led.messages == 1
        assert led.entries_sent == 1
        assert led.flops == 1


def test_sum_scatter_singleton_is_free():
    led = fresh_ledgers([5])
    x = np.array([3.0 + 1j, 4.0])
    out = sum_scatter({5: [x]}, led)
    assert np.array_equal(out[5], x)
    assert out[5] is not x  # result never aliases an input buffer
    assert led[5].messages == 0 and led[5].entries_sent == 0


def test_sum_scatter_team_of_four_matches_dense_reduction():
    rng = np.random.default_rng(139)
    members = [0, 4, 8, 12]
    blocks = {
        m: [rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)) for _ in members]
        for m in members
    }
    leds = fresh_ledgers(members)
    out = sum_scatter(blocks, leds)
    for j, m in enumerate(members):
        dense = sum(blocks[q][j] for q in members)
        assert np.allclose(out[m], dense, atol=1e-15)
    for led in leds.values():
        assert led.messages == 2  # log2(4) rounds
        assert led.entries_sent == 3 * 6
        assert led.flops == 3 * 6


def test_sum_scatter_contract_violations():
    x = np.zeros(2, dtype=complex)
    with pytest.raises(ValueError):
        sum_scatter({0: [x], 1: [x, x]})
    with pytest.raises(ValueError):
        sum_scatter({0: [x, np.zeros(3, dtype=complex)], 1: [x, x]})
    leds = fresh_ledgers([0, 1, 2])
    with pytest.raises(ValueError):
        sum_scatter({m: [x, x, x] for m in (0, 1, 2)}, leds)


# ---------------------------------------------------------------------------
# equivalence with the sequential engine
# ---------------------------------------------------------------------------


def test_single_rank_bit_identical_cheb():
    rng = np.random.default_rng(149)
    s = random_sources(rng, 90)
    phase = get_phase("fourier")
    seq = butterfly_apply(s, phase, 8, q=4)
    par = simulate_parallel(s, phase, 8, p=1, q=4)
    for key in seq.target_keys():
        assert np.array_equal(seq.weight_vector(key), par.field.weight_vector(key))


def test_single_rank_bit_identical_id():
    rng = np.random.default_rng(151)
    s = random_sources(rng, 90)
    phase = get_phase("fourier")
    seq = butterfly_apply(s, phase, 8, backend="id", tol=1e-6)
    par = simulate_parallel(s, phase, 8, p=1, backend="id", tol=1e-6)
    for key in seq.target_keys():
        assert np.array_equal(seq.weight_vector(key), par.field.weight_vector(key))


@pytest.mark.parametrize(
    "d,N,plist",
    [(1, 4, (2, 4)), (1, 8, (2, 8)), (2, 4, (4, 16))],
)
def test_parallel_matches_sequential(d, N, plist):
    rng = np.random.default_rng(157 + d + N)
    s = random_sources(rng, 120, d=d)
    phase = get_phase("fourier")
    pts = rng.uniform(size=(20, d))
    seq = butterfly_apply(s, phase, N, q=4).evaluate(pts)
    for p in plist:
        par = simulate_parallel(s, phase, N, p=p, q=4)
        assert rel_sup_error(par.field.evaluate(pts), seq) <= 1e-12


def test_parallel_weights_exact_1d():
    rng = np.random.default_rng(163)
    s = random_sources(rng, 100)
    phase = get_phase("fourier")
    seq = butterfly_apply(s, phase, 8, q=4)
    for p in (2, 4, 8):
        par = simulate_parallel(s, phase, 8, p=p, q=4)
        for key in seq.target_keys():
            assert np.array_equal(seq.weight_vector(key), par.field.weight_vector(key))


@pytest.mark.parametrize(
    "d,N,backend", [(1, 16, "cheb"), (1, 16, "id"), (2, 8, "cheb"), (2, 8, "id"), (2, 16, "cheb")]
)
def test_parallel_weights_exact_where_teams_hold_whole_sibling_groups(d, N, backend):
    # Exact whenever log2 p is a multiple of d: every communicating stage
    # then moves d bits, each team member holds one child of every output
    # pair, and the ascending-rank reduction adds the children in the
    # sequential order. Other p in d = 2 split sibling groups 2 + 2, which
    # reassociates the sum: equal to rounding, pinned by criterion 4.
    rng = np.random.default_rng(229 + d + N)
    s = random_sources(rng, 150, d=d)
    phase = get_phase("fourier")
    kwargs = {"q": 3} if backend == "cheb" else {"backend": "id", "tol": 1e-6}
    seq = butterfly_apply(s, phase, N, **kwargs)
    logmax = (N**d).bit_length() - 1
    for logp in range(0, logmax + 1, d):
        par = simulate_parallel(s, phase, N, p=1 << logp, **kwargs)
        for key in seq.target_keys():
            assert np.array_equal(seq.weight_vector(key), par.field.weight_vector(key)), (1 << logp, key)


def test_threads_do_not_change_bits():
    rng = np.random.default_rng(167)
    s = random_sources(rng, 140, d=1)
    phase = get_phase("fourier")
    one = simulate_parallel(s, phase, 8, p=4, q=4, threads=1)
    four = simulate_parallel(s, phase, 8, p=4, q=4, threads=4)
    for key in one.field.target_keys():
        assert np.array_equal(one.field.weight_vector(key), four.field.weight_vector(key))
    for la, lb in zip(one.ledgers, four.ledgers):
        assert (la.flops, la.messages, la.entries_sent) == (lb.flops, lb.messages, lb.entries_sent)


def test_parallel_id_backend_agrees():
    rng = np.random.default_rng(173)
    s = random_sources(rng, 150)
    phase = get_phase("fourier")
    pts = rng.uniform(size=(15, 1))
    seq = butterfly_apply(s, phase, 16, backend="id", tol=1e-6).evaluate(pts)
    par = simulate_parallel(s, phase, 16, p=4, backend="id", tol=1e-6)
    assert rel_sup_error(par.field.evaluate(pts), seq) <= 1e-12


# ---------------------------------------------------------------------------
# communication accounting
# ---------------------------------------------------------------------------


def test_message_and_entry_counts_1d():
    rng = np.random.default_rng(179)
    s = random_sources(rng, 64)
    phase = get_phase("fourier")
    trace = []
    par = simulate_parallel(s, phase, 8, p=4, q=4, trace=trace)
    assert par.schedule == [0, 1, 1]
    # every rank sends log2(p) messages and (2^k - 1) * blocksize entries
    # per communicating stage, blocksize = pairs_per_rank * stage width
    for led in par.ledgers:
        assert led.messages == 2
        assert led.entries_sent == 2 * (2 * 4)
    assert trace == [f"{lv},{m},1,8" for lv in (1, 2) for m in range(4)]


def test_trace_matches_schedule_2d():
    rng = np.random.default_rng(181)
    s = random_sources(rng, 128, d=2)
    phase = get_phase("fourier")
    trace = []
    par = simulate_parallel(s, phase, 8, p=16, q=3, trace=trace)
    assert par.schedule == [0, 2, 2]
    rows = [tuple(int(v) for v in line.split(",")) for line in trace]
    assert rows == sorted(rows)
    pairs_per_rank = 64 // 16
    blocksize = pairs_per_rank * 9
    for level, rank, k, entries in rows:
        assert k == par.schedule[level] == 2
        assert entries == 3 * blocksize
    for led in par.ledgers:
        assert led.messages == 4
        assert led.entries_sent == 2 * 3 * blocksize


def test_rank_flops_identical_for_gridded_sources():
    # one source per leaf box removes the only data-dependent flop term, so
    # every rank performs exactly the same arithmetic
    N = 8
    pos = ((np.arange(N) + 0.5) / N)[:, None]
    s = SourceSet(pos, np.exp(1j * np.arange(N)))
    par = simulate_parallel(s, get_phase("fourier"), N, p=4, q=3)
    flops = [led.flops for led in par.ledgers]
    assert min(flops) == max(flops)


# ---------------------------------------------------------------------------
# ownership layout
# ---------------------------------------------------------------------------


def test_final_ownership_bit_reversal():
    rng = np.random.default_rng(191)
    s = random_sources(rng, 64)
    phase = get_phase("fourier")
    for N in (8, 16):
        par = simulate_parallel(s, phase, N, p=N, q=3)
        L = N.bit_length() - 1
        assert set(par.owners) == {DyadicKey(L, (c,)) for c in range(N)}
        for key, rank in par.owners.items():
            assert rank == bit_reverse(key.coords[0], L)


def test_ownership_counts_balanced():
    rng = np.random.default_rng(193)
    s = random_sources(rng, 100, d=2)
    phase = get_phase("fourier")
    for p in (1, 4, 16):
        par = simulate_parallel(s, phase, 8, p=p, q=3)
        assert set(par.owners) == {DyadicKey(3, c) for c in np.ndindex(8, 8)}
        counts = {}
        for rank in par.owners.values():
            counts[rank] = counts.get(rank, 0) + 1
        assert set(counts) == set(range(p))
        assert all(c == 64 // p for c in counts.values())


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------


def test_modeled_time_closed_form():
    assert modeled_time(1, 2, 1, 2, 1.0, 1.0, 1.0) == 3.0
    assert modeled_time(4, 16, 1, 1, 1.0, 1.0, 1.0) == 16 * 16 * 4
    # with free latency, spreading a fixed problem can only help ...
    assert modeled_time(4, 16, 2, 16, 0.0, 1e-9, 1e-10) < modeled_time(
        4, 16, 2, 4, 0.0, 1e-9, 1e-10
    )
    # ... while a realistic alpha makes tiny per-rank blocks latency-bound
    assert modeled_time(4, 16, 2, 16, 1e-6, 1e-9, 1e-10) > modeled_time(
        4, 16, 2, 4, 1e-6, 1e-9, 1e-10
    )


def test_ledger_report_rows():
    rng = np.random.default_rng(197)
    s = random_sources(rng, 50)
    par = simulate_parallel(s, get_phase("fourier"), 8, p=2, q=3)
    rows = ledger_report(par.ledgers)
    assert [r["rank"] for r in rows] == [0, 1]
    for row, led in zip(rows, par.ledgers):
        assert row["flops"] == led.flops
        assert row["messages"] == led.messages
        assert row["entries_sent"] == led.entries_sent
        expect = 1e-10 * led.flops + 1e-6 * led.messages + 1e-9 * led.entries_sent
        assert row["modeled_seconds"] == pytest.approx(expect)


def test_modeled_seconds_decrease_with_p():
    rng = np.random.default_rng(199)
    s = random_sources(rng, 400, d=2)
    phase = get_phase("hyp-radon")
    maxima = []
    flops_max = []
    for p in (1, 4, 16, 64):
        par = simulate_parallel(s, phase, 16, p=p, q=4)
        maxima.append(max(led.modeled_seconds() for led in par.ledgers))
        flops_max.append(max(led.flops for led in par.ledgers))
    assert all(maxima[i + 1] < maxima[i] for i in range(len(maxima) - 1))
    # near-perfect compute scaling: the busiest rank's flops shrink with p
    for p, fm in zip((4, 16, 64), flops_max[1:]):
        assert fm * p <= 1.5 * flops_max[0]


def test_invalid_process_counts():
    rng = np.random.default_rng(211)
    s = random_sources(rng, 20)
    phase = get_phase("fourier")
    with pytest.raises(InvalidProcessCountError):
        simulate_parallel(s, phase, 8, p=3)
    with pytest.raises(InvalidProcessCountError):
        simulate_parallel(s, phase, 8, p=16)


def test_empty_sources_still_run():
    s = SourceSet(np.zeros((0, 1)), np.zeros(0, dtype=complex))
    phase = get_phase("fourier")
    for backend in ("cheb", "id"):
        par = simulate_parallel(s, phase, 4, p=2, q=3, backend=backend, tol=1e-6)
        vals = par.field.evaluate(np.array([[0.3], [0.8]]))
        assert np.allclose(vals, 0.0)


# ---------------------------------------------------------------------------
# The id backend's level arrays against the per-pair implementation
# ---------------------------------------------------------------------------


def box_of(key):
    w = 1.0 / (1 << key.level)
    return BoxRegion(tuple(c * w for c in key.coords), (w,) * key.dim)


def level_keys(d, level):
    return [DyadicKey(level, c) for c in itertools.product(range(1 << level), repeat=d)]


def children(key):
    """The 2^d children in child-index order (dimension 0 least significant)."""
    return [
        DyadicKey(key.level + 1, tuple(2 * c + ((n >> k) & 1) for k, c in enumerate(key.coords)))
        for n in range(1 << key.dim)
    ]


def parent(key):
    return DyadicKey(key.level - 1, tuple(c // 2 for c in key.coords))


class PerPairIdEngine(IdEngine):
    """The id engine with the per-pair precompute, leaf initialization and
    stage of the implementation that kept every pair's map in dicts keyed by
    box coordinates: an oracle for the level arrays. The factorizations are
    the same calls on the same samples; the field is made from the arrays."""

    def set_sources(self, sources):
        super().set_sources(sources)
        self._sources = sources
        d, L = self.d, self.L
        leaves = level_keys(d, L)
        row_pts = {b: cheb_grid(self.rows_per_dim, box_of(b)).points for b in leaves}
        all_targets = np.vstack([row_pts[b] for b in leaves])
        coords = leaf_coords(sources.positions, L)
        sampler = functools.partial(kernel_matrix, self.phase)
        root = DyadicKey(0, (0,) * d)
        points = {}
        self._stage0 = {}
        for b in leaves:
            idx = np.flatnonzero(np.all(coords == b.coords, axis=1))
            if idx.size:
                pos = sources.positions[idx]
                dec = build_id(sampler(all_targets, pos), self.tol)
                points[(root, b)] = pos[dec.column_indices]
                self._stage0[b.coords] = (dec.matrix, idx)
            else:
                points[(root, b)] = np.zeros((0, d))
                self._stage0[b.coords] = (np.zeros((0, 0), dtype=complex), idx)
        self._widths = {0: max(len(pts) for pts in points.values())}
        self._ops = {}
        for level in range(L):
            ops = {}
            shift = L - level - 1
            for bp in level_keys(d, shift):
                for ac in level_keys(d, level + 1):
                    kids = [points[(parent(ac), bn)] for bn in children(bp)]
                    ranges = [range(c << shift, (c + 1) << shift) for c in ac.coords]
                    targets = np.vstack([row_pts[DyadicKey(L, c)] for c in itertools.product(*ranges)])
                    dec = build_translation_id(kids, targets, sampler, self.tol)
                    bounds = np.cumsum([0] + [len(pts) for pts in kids])
                    ops[ac.coords + bp.coords] = (dec.matrix, [slice(a, b) for a, b in zip(bounds, bounds[1:])])
                    points[(ac, bp)] = dec.points
            self._ops[level] = ops
            self._widths[level + 1] = max(matrix.shape[0] for matrix, _ in ops.values())

    def init_blocks(self, b_lo, b_shape, ledger):
        out = np.zeros(tuple(b_shape) + (self._widths[0],), dtype=complex)
        for j in np.ndindex(*b_shape):
            Z, idx = self._stage0[tuple(lo + k for lo, k in zip(b_lo, j))]
            if Z.size:
                out[j][: Z.shape[0]] = Z @ self._sources.strengths[idx]
            ledger.add_flops(2 * Z.shape[0] * Z.shape[1])
        return LevelBlock(0, (0,) * self.d, tuple(b_lo), out.reshape((1,) * self.d + out.shape))

    def stage(self, level, blk, ledger):
        d = self.d
        (ac_lo, ac_shape), (bp_lo, bp_shape) = blk.next_boxes()
        out = np.zeros(ac_shape + bp_shape + (self._widths[level + 1],), dtype=complex)
        for offset, index in present_children(blk.b_lo, blk.values.shape[d : 2 * d]):
            n = offset_index(offset)
            child_values = blk.values[(slice(None),) * d + index]
            for i in np.ndindex(*ac_shape):
                ac = tuple(lo + k for lo, k in zip(ac_lo, i))
                a_idx = tuple(k // 2 for k in i)
                for j in np.ndindex(*bp_shape):
                    matrix, slices = self._ops[level][ac + tuple(lo + k for lo, k in zip(bp_lo, j))]
                    mat = matrix[:, slices[n]]
                    out[i + j][: mat.shape[0]] += mat @ child_values[a_idx + j][: mat.shape[1]]
                    ledger.add_flops(2 * mat.shape[0] * mat.shape[1] + mat.shape[0])
        return LevelBlock(level + 1, ac_lo, bp_lo, out)


@pytest.mark.parametrize("d,N", [(1, 16), (2, 4), (2, 8)])
def test_id_stage_matches_per_pair_oracle(d, N, monkeypatch):
    rng = np.random.default_rng(271 + d + N)
    s = random_sources(rng, 40 * d, d=d)  # some leaves stay empty
    phase = get_phase("fourier")
    for p in (1, 4, 16):
        arrays = simulate_parallel(s, phase, N, p=p, backend="id", tol=1e-8)
        with monkeypatch.context() as m:
            m.setattr(
                bfly.parallel, "make_engine",
                lambda phase, d, N, q, backend, tol, rows, sources: PerPairIdEngine(phase, d, N, tol, rows, sources),
            )
            oracle = simulate_parallel(s, phase, N, p=p, backend="id", tol=1e-8)
        got, want = arrays.field.values, oracle.field.values
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), p
        for la, lb in zip(arrays.ledgers, oracle.ledgers):
            assert (la.flops, la.messages, la.entries_sent) == (lb.flops, lb.messages, lb.entries_sent), p
