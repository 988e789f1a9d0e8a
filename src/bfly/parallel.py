"""Deterministic simulator of the distributed butterfly traversal.

Each of p virtual processes owns N^d/p pairs of the current level, described
by two bisection stacks (target side D_X, source side D_Y). Its pairs are
the product of two dyadic regions, a rectangular block of the level array
(geometry.region_coords), and under the uniform bisection the p blocks
tile the level. So the ranks are not a loop: the simulator holds each level
as the one array the sequential engine uses, runs one engine init and one
stage per level on it, and keeps, per level, the flat indices of each
rank's pairs (p, N^d/p) to charge each rank for the pairs it holds.

A stage either stays local (enough source bits remain on every rank) or
moves k bits of ownership from D_Y to D_X, which regroups the ranks into
teams of 2^k. The members of a team hold the same output pairs, each with a
partial sum over the children it holds: the children of one offset in the
k split dimensions. The engine's stage keeps these partial sums apart on a
leading team axis, and the simulated reduce-scatter adds them over that
axis in ascending member order, one whole-array add per member, charging
the alpha/beta cost model. Communication is never performed for real, and
there are no threads, so results are reproducible.

Bit-exactness against butterfly_apply. Every stage sums the 2^d children of
an output pair in canonical coordinate order. When a communicating stage
moves d bits (always in d = 1; in general whenever log2 p is a multiple of
d), each team member holds exactly one child of every output pair, in that
same order by rank, so the ascending-member reduction reproduces the
sequential sum bit for bit. When it moves fewer bits (d = 2 with odd log2 p:
p = 2, 8, 32, ...), a member holds a partial sum over several children, say
(c0 + c1) + (c2 + c3) against ((c0 + c1) + c2) + c3, and the weights agree
only to rounding (the acceptance gate holds them to 1e-12 relative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

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
    rank the sum over its own pairs.
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
        self.flops += np.sum(per_pair[self.pairs], axis=1)

    def ledgers(self, params: CostParams) -> List[CostLedger]:
        return [
            CostLedger(params, int(f), int(m), int(e))
            for f, m, e in zip(self.flops, self.messages, self.entries_sent)
        ]


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


def reduce_scatter(partials: np.ndarray, costs: RankCosts) -> np.ndarray:
    """Simulated reduce-scatter over the team axis.

    partials[t] holds team member t's partial sums for every pair of the
    level, teams side by side; each member receives the sum over its team
    for the pairs it will hold, added in ascending member order. Each rank
    is charged log2(team) messages and (team-1) blocks of traffic and adds,
    a block being its share of the result: the recursive-halving cost of
    the collective. A team of one is free.
    """
    team = partials.shape[0]
    if team & (team - 1):
        raise ValueError("team size must be a power of two")
    out = partials[0].copy()
    for part in partials[1:]:
        out += part
    if team > 1:
        block = (team - 1) * (out.size // len(costs.flops))
        costs.messages += team.bit_length() - 1
        costs.entries_sent += block
        costs.flops += block
    return out


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

    Each level is one array over all ranks' pairs: one engine init and one
    stage per level, whatever p. With p = 1 no stage communicates, so the
    final weights and the one rank's ledger are bit-identical to
    butterfly_apply's; `bfly verify` therefore solves with this call at
    every process count. Factorization work for the sampled backend is
    precomputed once and shared by every rank. `threads` has no effect and
    is kept for callers that still pass it.
    """
    d = sources.dim
    schedule = stage_schedule(N, d, p)
    eng = make_engine(phase, d, N, sources, q, backend, tol, rows_per_dim)
    L = eng.L
    cost_params = params if params is not None else CostParams()

    dx, dy = init_bisection_stacks(d, p)
    costs = RankCosts(p)
    costs.pairs = _rank_pairs(dx, dy, d, 0, L)
    values = eng.init_blocks(costs)
    for level in range(L):
        k = schedule[level]
        # team members differ in the rank bits of the k entries atop D_Y;
        # the i-th to pop cuts dimension split[i] and is bit i of the member
        split = tuple(dim for dim, _ in reversed(dy[len(dy) - k :]))
        values = eng.stage(level, values, costs, split)
        if k:
            values = reduce_scatter(values, costs)
            if trace is not None:
                entries = ((1 << k) - 1) * (values.size // p)
                trace.extend(f"{level},{rank},{k},{entries}" for rank in range(p))
            dx, dy = pop_push(dx, dy, k)
        costs.pairs = _rank_pairs(dx, dy, d, level + 1, L - level - 1)
    values = eng.finalize(values, costs)

    owners = np.empty(N**d, dtype=int)
    owners[costs.pairs] = np.arange(p)[:, None]
    ledgers = costs.ledgers(cost_params)
    total = CostLedger(cost_params)
    for led in ledgers:
        total.merge(led)
    out_field = eng.make_field(values)
    out_field.ledger = total
    return ParallelResult(out_field, owners.reshape((N,) * d), ledgers, schedule)


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
