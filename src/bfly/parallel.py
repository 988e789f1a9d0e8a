"""Deterministic simulator of the distributed butterfly traversal.

Each of p virtual processes owns N^d/p pairs of the current level, described
by two bisection stacks (target side D_X, source side D_Y). Its pairs are
the product of two dyadic regions, so it holds them as one LevelBlock: the
rectangular slice of the level array that region_coords gives, on which it
runs the engine's stage. A stage either stays local (enough source bits
remain on this rank) or moves k bits of ownership from D_Y to D_X, which
regroups the ranks into teams of 2^k. Each member then holds partial sums
for the pairs of all its team; it cuts its stage output into the slices the
members will own, and a simulated reduce-scatter adds them. Communication
is never performed for real: sum_scatter adds the contributions in
ascending rank order and charges the alpha/beta cost model, so results are
reproducible regardless of thread count.

Bit-exactness against butterfly_apply. Every stage sums the 2^d children of
an output pair in canonical coordinate order. When a communicating stage
moves d bits (always in d = 1; in general whenever log2 p is a multiple of
d), each team member holds exactly one child of every output pair, in that
same order by rank, so the ascending-rank reduction reproduces the
sequential sum bit for bit. When it moves fewer bits (d = 2 with odd log2 p:
p = 2, 8, 32, ...), a member holds a partial sum over several children, say
(c0 + c1) + (c2 + c3) against ((c0 + c1) + c2) + c3, and the weights agree
only to rounding (the acceptance gate holds them to 1e-12 relative).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from .costs import CostLedger, CostParams
from .engine import LevelBlock, PotentialField, SourceSet, make_engine
from .geometry import (
    BisectionStack,
    Block,
    DyadicKey,
    init_bisection_stacks,
    pop_push,
    region_coords,
    stage_schedule,
)
from .phases import PhaseEvaluator


@dataclass
class ParallelResult:
    field: PotentialField
    owners: Dict[DyadicKey, int]
    ledgers: List[CostLedger]
    schedule: List[int]


def sum_scatter(
    contributions: Mapping[int, Sequence[np.ndarray]],
    ledgers: Optional[Mapping[int, CostLedger]] = None,
) -> Dict[int, np.ndarray]:
    """Simulated reduce-scatter over one team.

    contributions[q] holds one equal-shape block per team member, in
    ascending member order; member j receives the sum of everyone's j-th
    block. Each member is charged log2(team) messages and (team-1) blocks
    of traffic, the recursive-halving cost of the collective.
    """
    members = sorted(contributions)
    team = len(members)
    if team == 0:
        return {}
    shape = None
    for q in members:
        if len(contributions[q]) != team:
            raise ValueError("each member must contribute one block per member")
        for blk in contributions[q]:
            if shape is None:
                shape = blk.shape
            elif blk.shape != shape:
                raise ValueError("reduce-scatter blocks must share one shape")
    result: Dict[int, np.ndarray] = {}
    for j, m in enumerate(members):
        acc = contributions[members[0]][j].copy()
        for q in members[1:]:
            acc += contributions[q][j]
        result[m] = acc
    if team > 1 and ledgers is not None:
        if team & (team - 1):
            raise ValueError("team size must be a power of two")
        rounds = team.bit_length() - 1
        blocksize = int(np.prod(shape)) if shape else 0
        for q in members:
            ledgers[q].add_comm(rounds, (team - 1) * blocksize)
            ledgers[q].add_flops((team - 1) * blocksize)
    return result


def _region(stack: BisectionStack, rank: int, d: int, level: int) -> Block:
    """(first coordinates, shape) of the level-`level` boxes of a rank's region."""
    ranges = region_coords(stack, rank, d, level)
    return tuple(a for a, _ in ranges), tuple(b - a for a, b in ranges)


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

    Each rank holds the pairs of its D_X x D_Y region as one LevelBlock and
    runs the engine's stage on it. With p = 1 that block is the sequential
    engine's, so the final weights are bit-identical to butterfly_apply.
    Factorization work for the sampled backend is precomputed once and
    shared read-only across ranks; only weight arrays ever move.
    """
    d = sources.dim
    schedule = stage_schedule(N, d, p)
    eng = make_engine(phase, d, N, q, backend, tol, rows_per_dim, sources)
    L = eng.L
    cost_params = params if params is not None else CostParams()

    dx, dy = init_bisection_stacks(d, p)
    ranks = list(range(p))
    ledgers = [CostLedger(cost_params) for _ in ranks]
    blocks = [eng.init_blocks(*_region(dy, rank, d, L), ledgers[rank]) for rank in ranks]

    moved = 0
    with ThreadPoolExecutor(max_workers=min(threads, p)) if threads > 1 else nullcontext() as pool:
        for level in range(L):

            def stage_job(rank: int) -> LevelBlock:
                return eng.stage(level, blocks[rank], ledgers[rank])

            outs = list(pool.map(stage_job, ranks)) if pool is not None else [stage_job(r) for r in ranks]
            k = schedule[level]
            if k == 0:
                blocks = outs
                continue

            new_dx, new_dy = pop_push(dx, dy, k)
            regions = [
                (_region(new_dx, rank, d, level + 1), _region(new_dy, rank, d, L - level - 1)) for rank in ranks
            ]

            def take(rank: int, member: int) -> np.ndarray:
                """The part of rank's stage output that member will own."""
                blk = outs[rank]
                (a_lo, a_shape), (b_lo, b_shape) = regions[member]
                index = tuple(
                    slice(lo - base, lo - base + n)
                    for lo, base, n in zip(a_lo + b_lo, blk.a_lo + blk.b_lo, a_shape + b_shape)
                )
                return blk.values[index]

            stage_trace: Dict[int, str] = {}
            bases = sorted({rank & ~(((1 << k) - 1) << moved) for rank in ranks})
            for base in bases:
                members = sorted(base | (bits << moved) for bits in range(1 << k))
                contributions = {q_rank: [take(q_rank, m) for m in members] for q_rank in members}
                sums = sum_scatter(contributions, {m: ledgers[m] for m in members})
                for m in members:
                    (a_lo, _), (b_lo, _) = regions[m]
                    blocks[m] = LevelBlock(level + 1, a_lo, b_lo, sums[m])
                    if trace is not None:
                        stage_trace[m] = f"{level},{m},{k},{((1 << k) - 1) * sums[m].size}"
            if trace is not None:
                trace.extend(stage_trace[r] for r in sorted(stage_trace))
            dx, dy = new_dx, new_dy
            moved += k

    finals = [eng.finalize(blocks[rank], ledgers[rank]) for rank in ranks]
    owners = {a: rank for rank in ranks for a in finals[rank].target_keys()}
    total = CostLedger(cost_params)
    for led in ledgers:
        total.merge(led)
    out_field = eng.make_field(finals)
    out_field.ledger = total
    return ParallelResult(out_field, owners, ledgers, schedule)


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
