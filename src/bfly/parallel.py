"""Deterministic simulator of the distributed butterfly traversal.

Each of p virtual processes owns N^d/p pairs of the current level, described
by two bisection stacks (target side D_X, source side D_Y). Its pairs are
the product of two dyadic regions, a rectangular block of the level array
(geometry.region_coords), and under the uniform bisection the p blocks
tile the level: each stack entry halves one axis of the level array on one
rank bit, so the blocks form a regular grid with a binary axis per rank
bit. So the ranks are not a loop: the simulator holds each level as the
one array the sequential engine uses, runs one engine init (which makes
level 1: stage 0 is in it) and one stage per later level on it, and keeps
only the current level's stacks (RankCosts), which move from D_Y to D_X
stage by stage (geometry.pop_push), to charge each rank for its block.

A stage either stays local (enough source bits remain on every rank) or
moves k bits of ownership from D_Y to D_X, which regroups the ranks into
teams of 2^k. The entries it moves cut dimensions k-1, ..., 0 (the
round-robin order of geometry.init_bisection_stacks), so the members of a
team hold the same output pairs, each with a partial sum over the children
whose canonical index has the member as its top k bits
(geometry.team_member): a run of 2^(d-k) children in canonical order. The
engine's stage adds each member's partial sum into the level's one array
in ascending member order, as soon as it is made (geometry.sum_children),
which are the adds a reduce-scatter makes; the simulated reduce-scatter
only charges the alpha/beta cost model for them. So every stage holds one
level array, whatever the team size, and a solve's kept factors
(chebyshev.SolveFactors) serve every p, as does the id set-up that
make_engine keeps for the same sources. Communication is never performed
for real and the traversal runs on one thread, so results are
reproducible; the id engine's precompute runs on every usable core
(engine.IdEngine) with the same bits for any count.

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

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .costs import CostLedger, CostParams
from .engine import PotentialField, SourceSet, make_engine
from .geometry import (
    BisectionStack,
    init_bisection_stacks,
    pop_push,
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

    The caller sets `stacks`, the bisection stacks (D_X, D_Y) of the level
    the engine works on, and `shape`, that level's pairs,
    (2^a,)*d + (2^b,)*d. Rank r's pairs are a block of the level array, the
    product of its regions (geometry.region_coords). The engine charges
    flops as an array over the pairs of the level a call runs on;
    add_flops gives each rank the sum over its block. A stage that charges
    every pair the same count passes it broadcast (np.broadcast_to, every
    stride 0), and each rank gets that count times its pair count.
    """

    def __init__(self, p: int):
        self.flops = np.zeros(p, dtype=np.int64)
        self.messages = np.zeros(p, dtype=np.int64)
        self.entries_sent = np.zeros(p, dtype=np.int64)
        self.stacks: Tuple[BisectionStack, BisectionStack] = ((), ())
        self.shape: Tuple[int, ...] = ()

    def _rank_axes(self) -> Tuple[List[int], List[int]]:
        """The level's shape with each stack entry a binary axis, ahead of
        the rest of the axis it halves, and an order of those axes that
        puts the binary axes first, most significant rank bit first: so
        transposed, the level holds each rank's block as one row, in rank
        order."""
        d = len(self.shape) // 2
        shape, bits = [], []
        for axis, n in enumerate(self.shape):
            # bottom entries first: each halves what the ones below leave
            cuts = [bit for dim, bit in self.stacks[axis // d] if dim == axis % d]
            shape += [2] * len(cuts) + [n >> len(cuts)]
            bits += cuts + [-1]
        return shape, sorted(range(len(bits)), key=bits.__getitem__, reverse=True)

    def add_flops(self, per_pair: np.ndarray) -> None:
        per_pair = np.reshape(per_pair, -1)
        size = math.prod(self.shape)
        if per_pair.size != size:
            raise ValueError(f"{per_pair.size} flop counts for a level of {size} pairs")
        if per_pair.strides == (0,):
            self.flops += per_pair[0] * (size // len(self.flops))
        else:
            shape, axes = self._rank_axes()
            self.flops += per_pair.reshape(shape).transpose(axes).reshape(len(self.flops), -1).sum(axis=1)

    def owners(self) -> np.ndarray:
        """A new (N,)*d array of the rank holding each target leaf's final
        weights; for the last level, where D_Y is empty and each rank's
        block is a block of target leaves."""
        shape, axes = self._rank_axes()
        p = len(self.flops)
        ranks = np.repeat(np.arange(p), math.prod(self.shape) // p)
        ranks = ranks.reshape([shape[a] for a in axes]).transpose(np.argsort(axes))
        return ranks.reshape(self.shape[: len(self.shape) // 2])

    def ledgers(self, params: CostParams) -> List[CostLedger]:
        return [
            CostLedger(params, f, m, e)
            for f, m, e in zip(self.flops.tolist(), self.messages.tolist(), self.entries_sent.tolist())
        ]

    def total(self, params: CostParams) -> CostLedger:
        """One ledger holding the sum of every rank's, in Python integers."""
        return CostLedger(params, *(sum(a.tolist()) for a in (self.flops, self.messages, self.entries_sent)))


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
    shared by every rank, and by every later call on the same sources:
    make_engine builds their engine on its kept set-up, so such a call runs
    only the traversal. The ranks' blocks at each level are read off the
    bisection stacks, which each stage pops and pushes. `threads` has no
    effect and does not size the id precompute's pool, which has a worker
    per usable core; it is kept for callers that still pass it.
    """
    d = sources.dim
    schedule = stage_schedule(N, d, p)
    eng = make_engine(phase, d, N, sources, q, backend, tol, rows_per_dim)
    cost_params = params if params is not None else CostParams()

    costs = RankCosts(p)
    costs.stacks, costs.shape = init_bisection_stacks(d, p), (1,) * d + (N,) * d
    values = eng.init_blocks(costs, schedule[0] if schedule else 0)
    for level, k in enumerate(schedule):
        if level:  # the init ran stage 0
            values = eng.stage(level, values, costs, k)
        if k:
            entries = reduce_scatter(1 << k, values.size, costs)
            if trace is not None:
                trace.extend(f"{level},{rank},{k},{entries}" for rank in range(p))
        costs.stacks, costs.shape = pop_push(*costs.stacks, k), (2 << level,) * d + (N >> (level + 1),) * d

    out_field = eng.make_field(values)
    out_field.ledger = costs.total(cost_params)
    return ParallelResult(out_field, costs.owners(), costs.ledgers(cost_params), schedule)


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
