"""Butterfly evaluation of oscillatory sums with a simulated
distributed-memory traversal and an explicit communication cost model."""

from __future__ import annotations

from .costs import CostLedger, CostParams
from .engine import (
    AllZeroReferenceError,
    PotentialField,
    SourceSet,
    direct_apply,
    rel_sup_error,
)
from .parallel import ParallelResult, butterfly_apply, ledger_report, modeled_time, simulate_parallel
from .phases import PhaseEvaluator, get_phase, register_phase

__version__ = "0.1.0"

__all__ = [
    "AllZeroReferenceError",
    "CostLedger",
    "CostParams",
    "ParallelResult",
    "PhaseEvaluator",
    "PotentialField",
    "SourceSet",
    "butterfly_apply",
    "direct_apply",
    "get_phase",
    "ledger_report",
    "modeled_time",
    "register_phase",
    "rel_sup_error",
    "simulate_parallel",
    "__version__",
]
