"""Distributed-traversal simulator: equivalence with the sequential engine
and with the per-rank simulator it replaced, reduce-scatter accounting,
ownership layout, and the cost model."""

from __future__ import annotations

import functools
import itertools
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from bfly.chebyshev import box_centers, column_stage, grid_points, init_source_weights, phase_factors
from bfly.costs import CostLedger, CostParams
from bfly.engine import ChebEngine, IdEngine, SourceSet, butterfly_apply, make_engine, rel_sup_error
from bfly.geometry import (
    DyadicKey,
    InvalidProcessCountError,
    block_coords,
    init_bisection_stacks,
    leaf_coords,
    leaf_runs,
    offset_index,
    parent_block,
    pop_push,
    present_children,
    region_coords,
    stage_schedule,
)
from bfly.lowrank import build_id
from bfly.parallel import RankCosts, ledger_report, modeled_time, reduce_scatter, simulate_parallel
from bfly.phases import get_phase, kernel_matrix


def bit_reverse(k: int, nbits: int) -> int:
    """k with its low nbits bits in reverse order."""
    return int(format(k, f"0{nbits}b")[::-1], 2)


def random_sources(rng, n, d=1):
    pos = rng.uniform(size=(n, d))
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    return SourceSet(pos, g)


# ---------------------------------------------------------------------------
# the reduce-scatter's charges; the stage adds the members' partial sums
# (geometry.sum_children, tested in test_geometry)
# ---------------------------------------------------------------------------


def test_sum_scatter_pairwise():
    # a team of two on a level of two entries: each member receives one
    costs = RankCosts(2)
    assert reduce_scatter(2, 2, costs) == 1
    assert list(costs.messages) == [1, 1]
    assert list(costs.entries_sent) == [1, 1]
    assert list(costs.flops) == [1, 1]


def test_sum_scatter_singleton_is_free():
    costs = RankCosts(1)
    assert reduce_scatter(1, 2, costs) == 0
    assert costs.messages[0] == 0 and costs.entries_sent[0] == 0 and costs.flops[0] == 0


def test_sum_scatter_team_of_four_charges_two_rounds():
    # four teams of four side by side (p = 16), each member's block 3 x 2
    costs = RankCosts(16)
    assert reduce_scatter(4, 16 * 3 * 2, costs) == 3 * 6
    assert all(costs.messages == 2)  # log2(4) rounds
    assert all(costs.entries_sent == 3 * 6)
    assert all(costs.flops == 3 * 6)
    # a team of ranks without weights (id with no sources) still exchanges
    costs = RankCosts(16)
    assert reduce_scatter(4, 0, costs) == 0
    assert all(costs.messages == 2) and not any(costs.entries_sent) and not any(costs.flops)


def test_sum_scatter_contract_violations():
    with pytest.raises(ValueError, match="power of two"):
        reduce_scatter(3, 6, RankCosts(6))


def test_team_stage_peaks_within_one_level_array_of_a_local_stage():
    # A d = 3 column stage whose team of 8 members each hold one child adds
    # each member's partial into the one output array once its last child
    # is in, before the next child is made, so it peaks within one level
    # array of the same stage kept local (at the same peak, in fact);
    # stacking the 8 partials held 8 level arrays, and their stack and its
    # reduction 2 more. Each member's one child is added in ascending
    # member order, the canonical order, so the bits agree.
    d, q, L, level = 3, 3, 3, 1
    rng = np.random.default_rng(311)
    shape = (q**d,) + (1 << level,) * d + (1 << (L - level),) * d
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    phase = get_phase("gen-radon")
    made = []
    column_stage(level, (0,) * d, L - level, (0,) * d, values, phase, q,
                 factors=lambda xs, grids: made.extend(phase_factors(phase, xs, grids)) or made)
    outs, peaks = [], []
    for team_bits in (0, 3):
        tracemalloc.start()
        try:
            outs.append(column_stage(level, (0,) * d, L - level, (0,) * d, values, phase, q, team_bits=team_bits,
                                     factors=lambda xs, grids: made))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert np.array_equal(outs[0], outs[1])
    assert peaks[1] <= peaks[0] + outs[0].nbytes


def level_stacks(N, d, p):
    """(stacks, shape) of each level 0..L of a p-rank traversal of (N,)*d
    leaves: the bisection stacks and the level's pairs, as simulate_parallel
    sets them on its RankCosts."""
    L = N.bit_length() - 1
    stacks = init_bisection_stacks(d, p)
    for level, k in enumerate(stage_schedule(N, d, p) + [0]):
        yield stacks, (1 << level,) * d + (1 << (L - level),) * d
        stacks = pop_push(*stacks, k)


def test_uniform_flop_counts_charge_each_rank_its_pairs():
    # one count broadcast over every pair of a level gives each rank what the
    # counts written out do; a wrong pair count is refused either way
    for stacks, shape in level_stacks(8, 2, 4):
        broadcast, written = RankCosts(4), RankCosts(4)
        broadcast.stacks = written.stacks = stacks
        broadcast.shape = written.shape = shape
        broadcast.add_flops(np.broadcast_to(7 << 40, shape))
        written.add_flops(np.full(shape, 7 << 40))
        assert np.array_equal(broadcast.flops, written.flops)
        assert broadcast.flops.tolist() == [(7 << 40) * 16] * 4
        with pytest.raises(ValueError, match="flop counts"):
            broadcast.add_flops(np.broadcast_to(1, (8 * 8 + 1,)))


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
        assert par.owners.shape == (N,)
        for c in range(N):
            assert par.owners[c] == bit_reverse(c, L)


def test_ownership_counts_balanced():
    rng = np.random.default_rng(193)
    s = random_sources(rng, 100, d=2)
    phase = get_phase("fourier")
    for p in (1, 4, 16):
        par = simulate_parallel(s, phase, 8, p=p, q=3)
        assert par.owners.shape == (8, 8)
        assert list(np.bincount(par.owners.ravel())) == [64 // p] * p


# ---------------------------------------------------------------------------
# each rank's block, read off the bisection stacks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,N", [(1, 16), (2, 8), (3, 4)])
def test_rank_costs_charge_each_rank_its_region_block(d, N):
    # at every level of every p, random per-pair counts give each rank the
    # sum over its D_X x D_Y block (region_coords), and a broadcast count
    # that count per pair it holds; a wrong pair count is refused; the last
    # level's owners are the final regions, in a new array per call
    rng = np.random.default_rng(337 + d)
    L = N.bit_length() - 1
    s = random_sources(rng, 10 * 2**d, d=d)
    phase = get_phase("fourier")
    for logp in range(d * L + 1):
        p = 1 << logp
        ranks = np.arange(p)
        costs = RankCosts(p)
        for level, ((dx, dy), shape) in enumerate(level_stacks(N, d, p)):
            costs.stacks, costs.shape = (dx, dy), shape
            ranges = region_coords(dx, ranks, d, level) + region_coords(dy, ranks, d, L - level)
            blocks = [tuple(slice(start[r], stop[r]) for start, stop in ranges) for r in ranks]
            counts = rng.integers(0, 1 << 40, size=shape)
            before = costs.flops.copy()
            costs.add_flops(counts)
            assert (costs.flops - before).tolist() == [counts[b].sum() for b in blocks]
            before = costs.flops.copy()
            costs.add_flops(np.broadcast_to(np.int64(7 << 40), shape))
            assert (costs.flops - before).tolist() == [(7 << 40) * (N**d // p)] * p
            for wrong in (np.ones(N**d + 1, dtype=np.int64), np.broadcast_to(np.int64(1), (N**d - 1,))):
                with pytest.raises(ValueError, match="flop counts"):
                    costs.add_flops(wrong)
        want = np.empty((N,) * d, dtype=int)
        for r, b in enumerate(blocks):
            want[b[:d]] = r
        owners = costs.owners()
        assert owners.dtype == want.dtype and np.array_equal(owners, want)
        owners[...] = -1
        assert np.array_equal(costs.owners(), want)
        res = simulate_parallel(s, phase, N, p=p, q=2)
        assert res.owners.dtype == want.dtype and np.array_equal(res.owners, want)
        res.owners[...] = -1
        assert np.array_equal(simulate_parallel(s, phase, N, p=p, q=2).owners, want)


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


def test_sources_without_coordinates_are_refused_at_every_p():
    # the call failed inside numpy at p = 1 and with a process-count error
    # at p = 2; the source set now refuses its dimension 0 first
    for p in (1, 2):
        with pytest.raises(ValueError, match="dimension 0"):
            simulate_parallel(SourceSet(np.zeros((3, 0)), np.ones(3)), get_phase("fourier"), 4, p=p)


# ---------------------------------------------------------------------------
# The per-rank simulator the rank-batched one replaced, as an oracle: a loop
# over ranks, each running the engine's stage on its own block of the level,
# and a dict-based reduce-scatter per team
# ---------------------------------------------------------------------------


@dataclass
class LevelBlock:
    """The weights of the pair whose target box has level `level` and
    coordinates a_lo + i, and whose source box has level L - level and
    coordinates b_lo + j: values[:, i..., j...] in the cheb engine's
    width-first level (lead = 1), values[i..., j..., :] in the id engine's
    (lead = 0)."""

    level: int
    a_lo: tuple
    b_lo: tuple
    values: np.ndarray
    lead: int = 0

    def pairs(self):
        """The shape of the block's pairs."""
        return self.values.shape[self.lead : self.lead + 2 * len(self.a_lo)]

    def at(self, index):
        """The weights of the pairs `index` selects."""
        return self.values[(slice(None),) * self.lead + index]

    def next_boxes(self):
        """(lo, shape) of the target and source boxes a stage produces."""
        d = len(self.a_lo)
        a_shape, b_shape = self.pairs()[:d], self.pairs()[d:]
        return (tuple(2 * a for a in self.a_lo), tuple(2 * n for n in a_shape)), parent_block(self.b_lo, b_shape)


def block_index(lo, shape):
    return tuple(slice(a, a + n) for a, n in zip(lo, shape))


def in_block(leaves, lo, shape):
    """Which of the sources in leaf boxes `leaves` (n, d) lie in a block of leaves."""
    return np.all((leaves >= np.asarray(lo)) & (leaves < np.add(lo, shape)), axis=1)


class PerRankStages:
    """A built engine's init and stage on one rank's block of pairs. `moves`
    is the number of rank bits the stage moves; after a stage that moves
    some, each member holds its share of the reduce-scatter's sum, which
    scattered(blk) finishes."""

    def __init__(self, eng):
        self.eng, self.d, self.L = eng, eng.d, eng.L

    def make_field(self, values):
        return self.eng.make_field(values)

    def scattered(self, blk):
        return blk


class PerRankCheb(PerRankStages):
    """On a stage that moves rank bits each rank's block is summed
    undemodulated, and each member demodulates its share of the
    reduce-scatter's sum on its own pairs, as a distributed run would: the
    demodulation follows the ascending member sum."""

    def factors(self, moves):
        """The default factors on a local stage; else phase_factors with ones
        for the demodulation, so the weight operations give the rank's
        partial sum undemodulated."""
        if not moves:
            return None

        def unit(xs, grids):
            made = phase_factors(self.eng.phase, xs, grids)
            yield np.ones_like(next(made))
            yield from made

        return unit

    def init_blocks(self, b_lo, b_shape, ledger, moves):
        """The level-1 pairs the block's leaves feed (stage 0 on the block:
        the sum over the children it holds), or the final weights if N = 1."""
        eng, src = self.eng, self.eng.sources
        inside = in_block(leaf_coords(src.positions, eng.L), b_lo, b_shape)
        values = init_source_weights(
            eng.L, b_lo, b_shape, src.positions[inside], src.strengths[inside], eng.phase, eng.q, ledger,
            self.factors(moves),
        )
        # in a one-leaf tree the root block is its own parent block
        return LevelBlock(min(eng.L, 1), (0,) * self.d, parent_block(b_lo, b_shape)[0], values, lead=1)

    def stage(self, level, blk, ledger, moves):
        """Column stages; stage 0 ran in the init and passes the block on."""
        eng = self.eng
        if level == 0:
            return blk
        values = column_stage(level, blk.a_lo, eng.L - level, blk.b_lo, blk.values, eng.phase, eng.q, ledger,
                              factors=self.factors(moves))
        (ac_lo, _), (bp_lo, _) = blk.next_boxes()
        return LevelBlock(level + 1, ac_lo, bp_lo, values, lead=1)

    def scattered(self, blk):
        """The member's share times exp(-i*Phi) between its target-box
        centers and its source boxes' grids."""
        eng, d = self.eng, self.d
        a_shape, b_shape = blk.pairs()[:d], blk.pairs()[d:]
        xc = box_centers(blk.level, block_coords(blk.a_lo, a_shape)).reshape((1,) + a_shape + (1,) * d + (d,))
        grid = np.moveaxis(grid_points(eng.q, self.L - blk.level, block_coords(blk.b_lo, b_shape)), -2, 0)
        demod = next(phase_factors(eng.phase, xc, [grid[(slice(None),) + (None,) * d]]))
        return LevelBlock(blk.level, blk.a_lo, blk.b_lo, np.multiply(demod, blk.values), blk.lead)


def repeat_onto_children(values, d):
    """An array over a block of boxes (axes 0..d-1) copied onto the block
    of their children: each box's entry goes to its 2^d children."""
    for k in range(d):
        values = np.repeat(values, 2, axis=k)
    return values


class PerRankId(PerRankStages):
    def init_blocks(self, b_lo, b_shape, ledger, moves):
        eng, d = self.eng, self.d
        out = np.zeros(tuple(b_shape) + eng._interp.shape[1:], dtype=complex)
        inside = in_block(eng._leaves, b_lo, b_shape)
        flat, starts = leaf_runs(eng._leaves[inside], b_lo, b_shape)
        if starts.size:
            weighted = eng._interp[inside] * eng._strengths[inside, None]
            out.reshape(-1, out.shape[-1])[flat[starts]] = np.add.reduceat(weighted, starts, axis=0)
        ranks = eng._ranks[0][(0,) * d + block_index(b_lo, b_shape)].reshape(-1)
        ledger.add_flops(2 * np.sum(ranks[flat]))
        return LevelBlock(0, (0,) * d, tuple(b_lo), out.reshape((1,) * d + out.shape))

    def stage(self, level, blk, ledger, moves):
        eng, d = self.eng, self.d
        (ac_lo, ac_shape), (bp_lo, bp_shape) = blk.next_boxes()
        pairs = block_index(ac_lo + bp_lo, ac_shape + bp_shape)
        maps = np.moveaxis(eng._maps[level][(slice(None), slice(None)) + pairs], 0, -2)
        out_ranks = eng._ranks[level + 1][pairs]
        in_ranks = eng._ranks[level][block_index(blk.a_lo + blk.b_lo, blk.values.shape[: 2 * d])]
        out = None
        for offset, index in present_children(blk.b_lo, blk.values.shape[d : 2 * d]):
            child = (slice(None),) * d + index
            contrib = np.matmul(maps[offset_index(offset)], repeat_onto_children(blk.values[child], d)[..., None])
            out = contrib[..., 0] if out is None else np.add(out, contrib[..., 0], out=out)
            ledger.add_flops(np.sum(out_ranks * (2 * repeat_onto_children(in_ranks[child], d) + 1)))
        return LevelBlock(level + 1, ac_lo, bp_lo, out)


def dict_sum_scatter(contributions, ledgers):
    """Reduce-scatter over one team: contributions[q] holds one block per
    member, in ascending member order; member j receives the sum of
    everyone's j-th block, added in ascending member order, and each member
    is charged log2(team) messages and (team-1) blocks of traffic."""
    members = sorted(contributions)
    team = len(members)
    result = {}
    for j, m in enumerate(members):
        acc = contributions[members[0]][j].copy()
        for q in members[1:]:
            acc += contributions[q][j]
        result[m] = acc
    if team > 1:
        blocksize = result[members[0]].size
        for q in members:
            ledgers[q].messages += team.bit_length() - 1
            ledgers[q].entries_sent += (team - 1) * blocksize
            ledgers[q].add_flops((team - 1) * blocksize)
    return result


def region(stack, rank, d, level):
    ranges = region_coords(stack, rank, d, level)
    return tuple(int(a) for a, _ in ranges), tuple(int(b - a) for a, b in ranges)


def per_rank_simulate(eng, N, p):
    """simulate_parallel as a loop over ranks. eng has the block entry points
    init_blocks(b_lo, b_shape, ledger, moves), stage(level, blk, ledger,
    moves) and scattered(blk) (PerRankStages), and make_field(values) of the
    final level.
    Returns the field, the owners as an array, the ledgers, the schedule and
    the trace strings."""
    d, L = eng.d, eng.L
    schedule = stage_schedule(N, d, p)
    dx, dy = init_bisection_stacks(d, p)
    ranks = list(range(p))
    ledgers = [CostLedger(CostParams()) for _ in ranks]
    blocks = [eng.init_blocks(*region(dy, rank, d, L), ledgers[rank], schedule[0] if schedule else 0) for rank in ranks]
    trace = []
    moved = 0
    for level in range(L):
        k = schedule[level]
        outs = [eng.stage(level, blocks[rank], ledgers[rank], k) for rank in ranks]
        if k == 0:
            blocks = outs
            continue
        new_dx, new_dy = pop_push(dx, dy, k)
        regions = [(region(new_dx, rank, d, level + 1), region(new_dy, rank, d, L - level - 1)) for rank in ranks]

        def take(rank, member):
            """The part of rank's stage output that member will own."""
            blk = outs[rank]
            (a_lo, a_shape), (b_lo, b_shape) = regions[member]
            index = tuple(
                slice(lo - base, lo - base + n)
                for lo, base, n in zip(a_lo + b_lo, blk.a_lo + blk.b_lo, a_shape + b_shape)
            )
            return blk.at(index)

        stage_trace = {}
        for base in sorted({rank & ~(((1 << k) - 1) << moved) for rank in ranks}):
            members = sorted(base | (bits << moved) for bits in range(1 << k))
            contributions = {q: [take(q, m) for m in members] for q in members}
            sums = dict_sum_scatter(contributions, {m: ledgers[m] for m in members})
            for m in members:
                (a_lo, _), (b_lo, _) = regions[m]
                blocks[m] = eng.scattered(LevelBlock(level + 1, a_lo, b_lo, sums[m], outs[m].lead))
                stage_trace[m] = f"{level},{m},{k},{((1 << k) - 1) * sums[m].size}"
        trace.extend(stage_trace[r] for r in sorted(stage_trace))
        dx, dy = new_dx, new_dy
        moved += k
    # the final level, laid out as the engine lays it out
    lead = blocks[0].lead
    width = blocks[0].values.shape[0 if lead else -1]
    values = np.zeros((width,) * lead + (N,) * d + (width,) * (1 - lead), dtype=complex)
    owners = np.full((N,) * d, -1)
    for rank, blk in enumerate(blocks):
        a_index = block_index(blk.a_lo, blk.pairs()[:d])
        leaves = values[(slice(None),) * lead + a_index]
        leaves[...] = blk.values.reshape(leaves.shape)
        owners[a_index] = rank
    return eng.make_field(values), owners, ledgers, schedule, trace


def tallies(ledgers):
    return [(led.flops, led.messages, led.entries_sent) for led in ledgers]


@pytest.mark.parametrize("backend", ["cheb", "id"])
@pytest.mark.parametrize("d,N", [(1, 16), (2, 8), (3, 4)])
def test_simulator_matches_per_rank_oracle(d, N, backend):
    # every p from 1 to N^d, including the d = 2 and d = 3 counts whose
    # log2 is not a multiple of d, where members hold partial sums over
    # several children
    rng = np.random.default_rng(283 + d + N)
    s = random_sources(rng, 30 * d, d=d)  # some leaves stay empty
    phase = get_phase("fourier")
    kwargs = {"q": 3} if backend == "cheb" else {"backend": "id", "tol": 1e-6}
    eng = make_engine(phase, d, N, sources=s, **kwargs)
    stages = PerRankCheb(eng) if backend == "cheb" else PerRankId(eng)
    for logp in range(d * (N.bit_length() - 1) + 1):
        p = 1 << logp
        trace = []
        par = simulate_parallel(s, phase, N, p=p, trace=trace, **kwargs)
        field, owners, ledgers, schedule, want_trace = per_rank_simulate(stages, N, p)
        assert np.array_equal(par.field.values, field.values), p
        assert tallies(par.ledgers) == tallies(ledgers), p
        assert par.schedule == schedule
        assert trace == want_trace, p
        assert np.array_equal(par.owners, owners), p


@pytest.mark.parametrize("engine", [ChebEngine, IdEngine])
def test_one_init_and_one_stage_call_per_level(engine, monkeypatch):
    # sim-1d's shape at a small size: every rank's block goes through the
    # same call, so one init (which runs stage 0) and L - 1 stage calls, not
    # p and p * (L - 1)
    calls = {"init_blocks": 0, "stage": 0}
    for name in calls:

        def counted(*args, _fn=getattr(engine, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(engine, name, counted)
    rng = np.random.default_rng(307)
    kwargs = {"q": 8} if engine is ChebEngine else {"backend": "id", "tol": 1e-6}
    simulate_parallel(random_sources(rng, 256), get_phase("fourier"), 64, p=8, **kwargs)
    assert calls == {"init_blocks": 1, "stage": 5}


# ---------------------------------------------------------------------------
# The id backend's level arrays against the per-pair implementation
# ---------------------------------------------------------------------------


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
    box coordinates: an oracle for the level arrays, with the block entry
    points that per_rank_simulate drives. The factorizations are the same
    calls on the same samples; the field is made from the arrays."""

    scattered = PerRankStages.scattered

    def __init__(self, phase, d, N, tol, rows_per_dim, sources):
        super().__init__(phase, d, N, tol, rows_per_dim, sources)
        self._sources = sources
        d, L = self.d, self.L
        leaves = level_keys(d, L)
        row_pts = {b: grid_points(self.rows_per_dim, L, np.asarray(b.coords)) for b in leaves}
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
                    stacked = np.concatenate(kids)
                    dec = build_id(sampler(targets, stacked), self.tol)
                    bounds = np.cumsum([0] + [len(pts) for pts in kids])
                    ops[ac.coords + bp.coords] = (dec.matrix, [slice(a, b) for a, b in zip(bounds, bounds[1:])])
                    points[(ac, bp)] = stacked[dec.column_indices]
            self._ops[level] = ops
            self._widths[level + 1] = max(matrix.shape[0] for matrix, _ in ops.values())

    def init_blocks(self, b_lo, b_shape, ledger, moves):
        out = np.zeros(tuple(b_shape) + (self._widths[0],), dtype=complex)
        for j in np.ndindex(*b_shape):
            Z, idx = self._stage0[tuple(lo + k for lo, k in zip(b_lo, j))]
            if Z.size:
                out[j][: Z.shape[0]] = Z @ self._sources.strengths[idx]
            ledger.add_flops(2 * Z.shape[0] * Z.shape[1])
        return LevelBlock(0, (0,) * self.d, tuple(b_lo), out.reshape((1,) * self.d + out.shape))

    def stage(self, level, blk, ledger, moves):
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
def test_id_stage_matches_per_pair_oracle(d, N):
    rng = np.random.default_rng(271 + d + N)
    s = random_sources(rng, 40 * d, d=d)  # some leaves stay empty
    phase = get_phase("fourier")
    per_pair = PerPairIdEngine(phase, d, N, 1e-8, 4, s)
    for p in (1, 4, 16):
        arrays = simulate_parallel(s, phase, N, p=p, backend="id", tol=1e-8)
        field, _, ledgers, _, _ = per_rank_simulate(per_pair, N, p)
        got, want = arrays.field.values, field.values
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), p
        assert tallies(arrays.ledgers) == tallies(ledgers), p
