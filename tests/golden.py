"""Golden results: a fixed seeded matrix of solves and what each one gives.

Each case is one simulate_parallel call on seeded sources. Its record holds
the per-rank flops, messages and entries sent, the owners of the target
leaves, the stage schedule, the field's values (and, for id, its final
ranks) and the field at a few seeded points. test_golden.py recomputes every
case and compares it with the committed golden_results.npz.

A change that moves results on purpose rewrites the file and records the
largest change in CHANGES.md:

    PYTHONPATH=src python tests/golden.py

The file is a compressed .npz without pickles, one array per case and
field, named "<case>.<field>".
"""

from __future__ import annotations

import pathlib
import sys
from typing import Dict, NamedTuple

import numpy as np

from bfly import SourceSet, get_phase, simulate_parallel

PATH = pathlib.Path(__file__).resolve().with_name("golden_results.npz")
EVALUATIONS = 32  # seeded points each field is evaluated at


class Case(NamedTuple):
    phase: str
    d: int
    N: int
    sources: int
    sparse: bool  # every source in the leaf box at the origin
    backend: str
    knob: float  # q for cheb, tol for id
    p: int
    seed: int


def _cases() -> Dict[str, Case]:
    problems = {
        "cheb-d1": ("fourier", 1, 16, 64, False, "cheb", 6),
        "cheb-d2": ("hyp-radon", 2, 8, 128, False, "cheb", 3),
        "cheb-d3": ("gen-radon", 3, 4, 128, False, "cheb", 2),
        "id-d1": ("fourier", 1, 16, 64, False, "id", 1e-7),
        "id-d2": ("fourier", 2, 8, 128, False, "id", 1e-7),
        "cheb-sparse": ("fourier", 2, 8, 5, True, "cheb", 3),
        "id-sparse": ("fourier", 2, 8, 5, True, "id", 1e-7),
        "cheb-empty": ("fourier", 2, 4, 0, False, "cheb", 3),
        "id-empty": ("fourier", 2, 4, 0, False, "id", 1e-7),
    }
    cases = {}
    for seed, (name, spec) in enumerate(problems.items()):
        d, N = spec[1], spec[2]
        for p in (1, 4, 16):
            if p <= N**d:
                cases[f"{name}-p{p}"] = Case(*spec, p, seed)
    return cases


CASES = _cases()


def source_set(case: Case) -> SourceSet:
    """The case's seeded sources: uniform in the unit cube, or, if sparse,
    in the leaf box at the origin, every other leaf empty."""
    rng = np.random.default_rng(case.seed)
    n = case.sources
    positions = rng.random((n, case.d))
    if case.sparse:
        positions /= case.N
    return SourceSet(positions, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def compute(case: Case) -> Dict[str, np.ndarray]:
    """The case's record, one array per field."""
    knob = {"q": int(case.knob)} if case.backend == "cheb" else {"tol": case.knob}
    res = simulate_parallel(source_set(case), get_phase(case.phase), case.N, case.p, backend=case.backend, **knob)
    points = np.random.default_rng(1000 + case.seed).random((EVALUATIONS, case.d))
    record = {
        "flops": np.array([led.flops for led in res.ledgers], dtype=np.int64),
        "messages": np.array([led.messages for led in res.ledgers], dtype=np.int64),
        "entries_sent": np.array([led.entries_sent for led in res.ledgers], dtype=np.int64),
        "owners": np.asarray(res.owners, dtype=np.int64),
        "schedule": np.array(res.schedule, dtype=np.int64),
        "values": res.field.values,
        "evaluations": res.field.evaluate(points),
    }
    if res.field.ranks is not None:
        record["ranks"] = np.asarray(res.field.ranks, dtype=np.int64)
    return record


def main() -> int:
    arrays = {f"{name}.{key}": a for name, case in CASES.items() for key, a in compute(case).items()}
    np.savez_compressed(PATH, **arrays)
    print(f"{PATH.name}: {len(CASES)} cases, {PATH.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
