"""Deterministic simulator of the distributed butterfly traversal.

Each of p virtual processes owns N^d/p pairs of the current level, described
by two bisection stacks (target side D_X, source side D_Y). Its pairs are
the product of two dyadic regions, a rectangular block of the level array
(geometry.region_coords), and under the uniform bisection the p blocks
tile the level. So the ranks are not a loop: the simulator holds each level
as the one array the sequential engine uses, runs one engine init (which
makes level 1: stage 0 is in it) and one stage per later level on it, and
keeps, per level, the flat indices of each rank's pairs (p, N^d/p) to
charge each rank for the pairs it holds.

A stage either stays local (enough source bits remain on every rank) or
moves k bits of ownership from D_Y to D_X, which regroups the ranks into
teams of 2^k. The members of a team hold the same output pairs, each with a
partial sum over the children it holds: the children of one offset in the
k split dimensions. The engine's stage adds each member's partial sum into
the level's one array in ascending member order, as soon as it is made
(geometry.sum_children), which are the adds a reduce-scatter makes; the
simulated reduce-scatter only charges the alpha/beta cost model for them.
So every stage holds one level array, whatever the team size.
Communication is never performed for real and the traversal runs on one
thread, so results are reproducible; the id engine's precompute runs on
every usable core (engine.IdEngine) with the same bits for any count.

The layout of a run depends on (N, d, p) alone: the stage schedule, each
communicating stage's split dimensions, each level's rank-pair table and
the final owners follow from the bisection stacks. A stage that moves k
bits splits dimensions (k-1, ..., 0), so its members' children, listed
member-major, come in canonical order, and a solve's kept factors
(chebyshev.SolveFactors) serve every p. It is made once per
(N, d, p) per process (_layout) and kept read-only, for the last _LAYOUTS
shapes: an entry holds L + 2 tables of N^d indices, 8 (L + 2) N^d bytes
(96 KiB for d = 1, N = 1024; 1.1 MiB for d = 2, N = 128; 1.8 MiB for
d = 3, N = 32), so the cache holds at most _LAYOUTS times the largest.

Bit-exactness against butterfly_apply. Every stage sums the 2^d children of
an output pair in canonical coordinate order, and a communicating stage
adds its members' partial sums in ascending member order inside the stage.
When it moves d bits (always in d = 1; in general whenever log2 p is a
multiple of d), each team member holds exactly one child of every output
pair, in that same order by rank, so the ascending-member sum reproduces
the sequential sum bit for bit. When it moves fewer bits (d = 2 with odd
log2 p: p = 2, 8, 32, ...), a member holds a partial sum over several
children, say (c0 + c1) + (c2 + c3) against ((c0 + c1) + c2) + c3, and the
weights agree only to rounding (the acceptance gate holds them to 1e-12
relative).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .costs import CostLedger, CostParams
from .engine import PotentialField, SourceSet, make_engine
from .geometry import (
    BisectionStack,
    init_bisection_stacks,
    pop_push,
    region_coords,
    stage_schedule,
)
from .phases import PhaseEvaluator


@dataclass
class ParallelResult:
    field: PotentialField
    owners: np.ndarray  # (N,)*d: the rank holding each target leaf's final weights
    ledgers: List[CostLedger]
    schedule: List[int]


class RankCosts:
    """Flops, messages and entries sent of each simulated rank, as arrays.

    pairs[r] lists the flat indices, in the array of the current level, of
    the pairs rank r holds (_rank_pairs). The engine charges flops as an
    array over the pairs of the level a call runs on; add_flops gives each
    rank the sum over its own pairs. A stage that charges every pair the
    same count passes it broadcast (np.broadcast_to, every stride 0), and
    each rank gets that count times its pair count, with no gather.
    """

    def __init__(self, p: int):
        self.flops = np.zeros(p, dtype=np.int64)
        self.messages = np.zeros(p, dtype=np.int64)
        self.entries_sent = np.zeros(p, dtype=np.int64)
        self.pairs = np.zeros((p, 0), dtype=np.intp)

    def add_flops(self, per_pair: np.ndarray) -> None:
        per_pair = np.reshape(per_pair, -1)
        if per_pair.size != self.pairs.size:
            raise ValueError(f"{per_pair.size} flop counts for a level of {self.pairs.size} pairs")
        if per_pair.strides == (0,):
            self.flops += per_pair[0] * self.pairs.shape[1]
        else:
            self.flops += np.sum(per_pair[self.pairs], axis=1)

    def ledgers(self, params: CostParams) -> List[CostLedger]:
        return [
            CostLedger(params, f, m, e)
            for f, m, e in zip(self.flops.tolist(), self.messages.tolist(), self.entries_sent.tolist())
        ]

    def total(self, params: CostParams) -> CostLedger:
        """One ledger holding the sum of every rank's, in Python integers."""
        return CostLedger(params, *(sum(a.tolist()) for a in (self.flops, self.messages, self.entries_sent)))


def _rank_pairs(dx: BisectionStack, dy: BisectionStack, d: int, a_level: int, b_level: int) -> np.ndarray:
    """Flat (C-order) indices into a level array (2^a_level,)*d +
    (2^b_level,)*d of the pairs each rank holds: (p, N^d/p), row r listing
    rank r's D_X x D_Y region in C order."""
    p = 1 << (len(dx) + len(dy))
    ranks = np.arange(p)
    ranges = region_coords(dx, ranks, d, a_level) + region_coords(dy, ranks, d, b_level)
    index = []
    for axis, (start, stop) in enumerate(ranges):
        # every rank's coordinates along this axis, broadcast against the others
        shape = [p] + [1] * len(ranges)
        shape[1 + axis] = -1
        index.append((start[:, None] + np.arange(stop[0] - start[0])).reshape(shape))
    level_shape = (1 << a_level,) * d + (1 << b_level,) * d
    return np.ravel_multi_index(tuple(index), level_shape).reshape(p, -1)


@dataclass(frozen=True)
class _Layout:
    """What a p-rank traversal of (N,)*d leaves does with its pairs, the
    same whatever the sources, phase or backend. Arrays are read-only."""

    schedule: Tuple[int, ...]  # bits moved by each stage
    splits: Tuple[Tuple[int, ...], ...]  # each stage's split dimensions
    pairs: Tuple[np.ndarray, ...]  # each level's (p, N^d/p) _rank_pairs, levels 0..L
    owners: np.ndarray  # (N,)*d: the rank holding each target leaf's final weights


# shapes whose layout is kept; see the module docstring for their bytes
_LAYOUTS = 8


@lru_cache(maxsize=_LAYOUTS)
def _layout(N: int, d: int, p: int) -> _Layout:
    """The layout of a p-rank traversal of (N,)*d leaves, from the
    bisection stacks; the same object for every call with (N, d, p) while
    it is among the last _LAYOUTS shapes."""
    schedule = tuple(stage_schedule(N, d, p))
    L = len(schedule)
    dx, dy = init_bisection_stacks(d, p)
    splits, pairs = [], [_rank_pairs(dx, dy, d, 0, L)]
    for level, k in enumerate(schedule):
        # team members differ in the rank bits of the k entries atop D_Y;
        # the i-th to pop cuts dimension split[i] and is bit i of the member
        splits.append(tuple(dim for dim, _ in reversed(dy[len(dy) - k :])))
        dx, dy = pop_push(dx, dy, k)
        pairs.append(_rank_pairs(dx, dy, d, level + 1, L - level - 1))
    owners = np.empty(N**d, dtype=int)
    owners[pairs[-1]] = np.arange(p)[:, None]
    owners = owners.reshape((N,) * d)
    for a in pairs + [owners]:
        a.setflags(write=False)
    return _Layout(schedule, tuple(splits), tuple(pairs), owners)


def reduce_scatter(team: int, size: int, costs: RankCosts) -> int:
    """Charge a simulated reduce-scatter over teams of `team` ranks on a
    level array of `size` entries; returns the entries each rank sends.

    The sum itself is made by the stage, which adds the members' partial
    sums in ascending member order (geometry.sum_children); each member
    then holds its share of it. Each rank is charged log2(team) messages
    and (team-1) blocks of traffic and adds, a block being its share of the
    result: the recursive-halving cost of the collective. A team of one is
    free.
    """
    if team < 1 or team & (team - 1):
        raise ValueError("team size must be a power of two")
    block = (team - 1) * (size // len(costs.flops))
    if team > 1:
        costs.messages += team.bit_length() - 1
        costs.entries_sent += block
        costs.flops += block
    return block


def simulate_parallel(
    sources: SourceSet,
    phase: PhaseEvaluator,
    N: int,
    p: int = 1,
    q: int = 8,
    backend: str = "cheb",
    tol: float = 1e-7,
    rows_per_dim: int = 4,
    params: Optional[CostParams] = None,
    threads: int = 1,
    trace: Optional[List[str]] = None,
) -> ParallelResult:
    """Run the full traversal on p simulated ranks and merge the result.

    Each level is one array over all ranks' pairs: one engine init, which
    makes level 1, and one stage per later level, whatever p. This is the
    library's one traversal loop: butterfly_apply is the same loop at
    p = 1, where no stage communicates, and `bfly verify` solves with this
    call at every process count.
    Factorization work for the sampled backend is precomputed once and
    shared by every rank; the ranks' layout is made once per (N, d, p) per
    process (_layout). `threads` has no effect and does not size the id
    precompute's pool, which has a worker per usable core; it is kept for
    callers that still pass it.
    """
    layout = _layout(N, sources.dim, p)
    eng = make_engine(phase, sources.dim, N, sources, q, backend, tol, rows_per_dim)
    cost_params = params if params is not None else CostParams()

    costs = RankCosts(p)
    costs.pairs = layout.pairs[0]
    values = eng.init_blocks(costs, layout.splits[0] if layout.splits else ())
    for level, (k, split) in enumerate(zip(layout.schedule, layout.splits)):
        if level:  # the init ran stage 0
            values = eng.stage(level, values, costs, split)
        if k:
            entries = reduce_scatter(1 << k, values.size, costs)
            if trace is not None:
                trace.extend(f"{level},{rank},{k},{entries}" for rank in range(p))
        costs.pairs = layout.pairs[level + 1]

    out_field = eng.make_field(values)
    out_field.ledger = costs.total(cost_params)
    return ParallelResult(out_field, layout.owners.copy(), costs.ledgers(cost_params), list(layout.schedule))


def modeled_time(
    r: int, N: int, d: int, p: int, alpha: float, beta: float, gamma: float
) -> float:
    """Closed-form cost estimate: compute scales with the pair count per
    rank times the stage count, communication with the bits moved."""
    L = N.bit_length() - 1
    per_rank = (N**d) // p
    logp = p.bit_length() - 1
    return gamma * r * r * per_rank * L + (beta * r * per_rank + alpha) * logp


def ledger_report(ledgers: Sequence[CostLedger]) -> List[dict]:
    """Per-rank cost rows sorted by rank, with modeled wall-clock seconds."""
    rows = []
    for rank, led in enumerate(ledgers):
        rows.append(
            {
                "rank": rank,
                "flops": led.flops,
                "messages": led.messages,
                "entries_sent": led.entries_sent,
                "modeled_seconds": led.modeled_seconds(),
            }
        )
    return rows
