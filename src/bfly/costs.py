"""Cost accounting for the butterfly engine and its parallel simulator.

Counting convention: one unit per complex multiply and one per complex add,
so a length-r modulation costs r units and a dense r x r matvec costs
2*r**2. A cheb column stage re-interpolates each child's r = q**d weights
one dimension at a time, d products of q x q matrices with q**(d-1) vectors
each, so it charges 2*d*q**(d+1) for it, which is 2*r**2 at d = 1; the
real child matrices count as complex ones.
Phase-function evaluations are not flops; they are kernel samples and are
tracked separately where a caller cares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CostParams:
    """Machine constants of the alpha + beta*n communication model.

    alpha  : seconds of latency per message
    beta   : seconds per weight entry sent (inverse bandwidth)
    gamma  : seconds per flop unit
    """

    alpha: float = 1e-6
    beta: float = 1e-9
    gamma: float = 1e-10


@dataclass
class CostLedger:
    """Per-process tally of flops, messages, and entries sent.

    Each ledger belongs to one (simulated) process; the simulator's total is
    a sum of integers over the ranks (parallel.RankCosts.total), so it does
    not depend on their order.
    """

    params: CostParams = field(default_factory=CostParams)
    flops: int = 0
    messages: int = 0
    entries_sent: int = 0

    def add_flops(self, n) -> None:
        """Charge n flops: a count, or an array of counts per pair."""
        self.flops += int(np.sum(n))

    def modeled_seconds(self) -> float:
        p = self.params
        return p.gamma * self.flops + p.alpha * self.messages + p.beta * self.entries_sent
