"""Deterministic simulator of the distributed butterfly traversal.

Each of p virtual processes owns N^d/p contiguous pairs of the current
level, described by two bisection stacks (target side D_X, source side
D_Y). A stage either stays local (enough source bits remain on this rank)
or moves k bits of ownership from D_Y to D_X, which regroups the ranks
into teams of 2^k and exchanges partial sums by a simulated reduce-scatter.
Communication is never performed for real: sum_scatter adds the
contributions in ascending rank order and charges the alpha/beta cost
model, so results are reproducible regardless of thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from .costs import CostLedger, CostParams
from .engine import (
    Pair,
    PotentialField,
    SourceSet,
    _translate_local,
    make_engine,
)
from .geometry import (
    DyadicKey,
    init_bisection_stacks,
    keys_in_region,
    pop_push,
    stage_schedule,
)
from .phases import PhaseEvaluator


@dataclass
class VirtualProcess:
    rank: int
    blocks: Dict[Pair, np.ndarray]
    ledger: CostLedger


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

    With p = 1 the arithmetic is performed by the same routines in the
    same order as butterfly_apply, so the final weights are bit-identical.
    Factorization work for the sampled backend is precomputed once and
    shared read-only across ranks; only weight vectors ever move.
    """
    d = sources.dim
    schedule = stage_schedule(N, d, p)
    eng = make_engine(phase, d, N, q, backend, tol, rows_per_dim, sources)
    L = eng.L
    pairs_per_rank = (N**d) // p
    cost_params = params if params is not None else CostParams()

    dx, dy = init_bisection_stacks(d, p)
    ranks = list(range(p))
    vps: Dict[int, VirtualProcess] = {}
    for rank in ranks:
        owned_y = keys_in_region(dy, rank, d, L)
        ledger = CostLedger(cost_params)
        vps[rank] = VirtualProcess(rank, eng.init_blocks(owned_y, ledger), ledger)
        assert len(vps[rank].blocks) == pairs_per_rank

    def stage_job(rank: int, level: int) -> tuple[int, Dict[Pair, np.ndarray]]:
        vp = vps[rank]
        blocks = eng.pre_stage(level, vp.blocks, vp.ledger)
        return rank, _translate_local(eng, level, blocks, vp.ledger)

    moved = 0
    for level in range(L):
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                outs = dict(pool.map(partial(stage_job, level=level), ranks))
        else:
            outs = dict(stage_job(r, level) for r in ranks)
        k = schedule[level]
        if k == 0:
            for rank in ranks:
                vps[rank].blocks = outs[rank]
                assert len(vps[rank].blocks) == pairs_per_rank
            continue

        new_dx, new_dy = pop_push(dx, dy, k)
        max_len = eng.stage_out_max(level)
        member_pairs: Dict[int, List[Pair]] = {}
        for rank in ranks:
            new_x = keys_in_region(new_dx, rank, d, level + 1)
            new_y = keys_in_region(new_dy, rank, d, L - level - 1)
            member_pairs[rank] = [(a, b) for a in new_x for b in new_y]

        stage_trace: Dict[int, str] = {}
        bases = sorted({rank & ~(((1 << k) - 1) << moved) for rank in ranks})
        for base in bases:
            members = sorted(base | (bits << moved) for bits in range(1 << k))
            contributions: Dict[int, List[np.ndarray]] = {}
            for q_rank in members:
                rows: List[np.ndarray] = []
                for m in members:
                    pairs = member_pairs[m]
                    block = np.zeros((len(pairs), max_len), dtype=complex)
                    for i, pair in enumerate(pairs):
                        v = outs[q_rank][pair]
                        block[i, : v.shape[0]] = v
                    rows.append(block)
                contributions[q_rank] = rows
            sums = sum_scatter(contributions, {m: vps[m].ledger for m in members})
            blocksize = len(member_pairs[members[0]]) * max_len
            for m in members:
                pairs = member_pairs[m]
                vps[m].blocks = {
                    pair: sums[m][i, : eng.out_len(level, pair[0], pair[1])]
                    for i, pair in enumerate(pairs)
                }
                assert len(vps[m].blocks) == pairs_per_rank
                if trace is not None:
                    entries = ((1 << k) - 1) * blocksize
                    stage_trace[m] = f"{level},{m},{k},{entries}"
        if trace is not None:
            trace.extend(stage_trace[r] for r in sorted(stage_trace))
        dx, dy = new_dx, new_dy
        moved += k

    merged: Dict[Pair, np.ndarray] = {}
    total = CostLedger(cost_params)
    for rank in ranks:
        vp = vps[rank]
        vp.blocks = eng.finalize(vp.blocks, vp.ledger)
        merged.update(vp.blocks)
        total.merge(vp.ledger)
    owners = {a: rank for rank in ranks for (a, b) in vps[rank].blocks}

    out_field = eng.make_field(merged)
    out_field.ledger = total
    return ParallelResult(out_field, owners, [vps[r].ledger for r in ranks], schedule)


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
