"""Butterfly evaluation of oscillatory sums f(x) = sum_y exp(i*Phi(x,y)) g(y).

The engine runs log2(N) merge/split stages over the pair hierarchy
T_X(level) x T_Y(level): target boxes split while source boxes merge, so
every level holds exactly N^d pairs, each carrying a short weight vector.
Two interchangeable low-rank representations drive the translations:

* "cheb": analytic Chebyshev interpolation with phase demodulation
  (rank q^d per pair, column side first, one middle switch, row side last);
* "id": interpolative decompositions built from kernel samples, whose
  weights are equivalent point sources at adaptively selected source
  points and whose translations recompress stacked child skeletons.

butterfly_apply is the sequential reference; the distributed simulator in
bfly.parallel reuses the same per-child contribution routines, which is
what makes its p = 1 run bit-identical to the sequential engine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from . import chebyshev as cheb
from .costs import CostLedger, CostParams
from .geometry import (
    DyadicKey,
    box_of,
    child_index,
    children,
    level_keys,
    parent,
)
from .lowrank import InterpolativeDecomposition, build_id, build_translation_id
from .phases import PhaseEvaluator, kernel_matrix

Pair = Tuple[DyadicKey, DyadicKey]


class AllZeroReferenceError(ValueError):
    """Relative error against an identically zero reference is undefined."""


@dataclass
class SourceSet:
    """Point sources in the unit cube with complex strengths."""

    positions: np.ndarray  # (n, d)
    strengths: np.ndarray  # (n,) complex

    def __post_init__(self) -> None:
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.strengths = np.asarray(self.strengths, dtype=complex).reshape(-1)
        if self.positions.shape[0] != self.strengths.shape[0]:
            raise ValueError("positions and strengths disagree on the source count")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("source positions must be finite")
        if not np.all(np.isfinite(self.strengths)):
            raise ValueError("source strengths must be finite")
        if self.positions.size and (self.positions.min() < 0.0 or self.positions.max() > 1.0):
            raise ValueError("source positions must lie in the unit cube")

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    def bin_by_leaf(self, level: int) -> Dict[DyadicKey, np.ndarray]:
        """Indices of the sources in each level-`level` box (half-open bins,
        faces to the larger coordinate, 1.0 folded into the last box)."""
        top = 1 << level
        if self.count == 0:
            return {}
        idx = np.minimum((self.positions * top).astype(int), top - 1)
        flat = np.zeros(self.count, dtype=np.int64)
        for k in range(self.dim - 1, -1, -1):
            flat = flat * top + idx[:, k]
        order = np.argsort(flat, kind="stable")
        out: Dict[DyadicKey, np.ndarray] = {}
        sorted_flat = flat[order]
        boundaries = np.nonzero(np.diff(sorted_flat))[0] + 1
        for chunk in np.split(order, boundaries):
            f = int(flat[chunk[0]])
            coords = tuple((f // top**k) % top for k in range(self.dim))
            out[DyadicKey(level, coords)] = chunk
        return out


def _pair_order(pair: Pair):
    return (pair[0].coords, pair[1].coords)


# ---------------------------------------------------------------------------
# Backend drivers
# ---------------------------------------------------------------------------


class ChebEngine:
    """Analytic backend: fixed rank q^d, column stages, switch, row stages."""

    name = "cheb"

    def __init__(self, phase: PhaseEvaluator, d: int, N: int, q: int):
        self.phase = phase
        self.d = d
        self.N = N
        self.q = q
        self.L = N.bit_length() - 1
        self.switch_level = math.ceil(self.L / 2)
        self.r = q**d
        self._bins: Dict[DyadicKey, np.ndarray] = {}
        self._sources: Optional[SourceSet] = None

    def set_sources(self, sources: SourceSet) -> None:
        self._sources = sources
        self._bins = sources.bin_by_leaf(self.L)

    def init_blocks(self, leaf_keys, ledger: CostLedger) -> Dict[Pair, np.ndarray]:
        root = DyadicKey(0, (0,) * self.d)
        out: Dict[Pair, np.ndarray] = {}
        src = self._sources
        for key in leaf_keys:
            idx = self._bins.get(key)
            if idx is None or src is None:
                out[(root, key)] = np.zeros(self.r, dtype=complex)
            else:
                out[(root, key)] = cheb.init_source_weights(
                    key, src.positions[idx], src.strengths[idx], self.phase, self.q, ledger
                )
        return out

    def pre_stage(self, level: int, blocks: Dict[Pair, np.ndarray], ledger: CostLedger) -> Dict[Pair, np.ndarray]:
        if level != self.switch_level:
            return blocks
        return self._switch_all(blocks, ledger)

    def _switch_all(self, blocks: Dict[Pair, np.ndarray], ledger: CostLedger) -> Dict[Pair, np.ndarray]:
        out: Dict[Pair, np.ndarray] = {}
        for (a, b) in sorted(blocks.keys(), key=_pair_order):
            out[(a, b)] = cheb.middle_switch(a, b, blocks[(a, b)], self.phase, self.q, ledger)
        return out

    def contribution(
        self, level: int, a_c: DyadicKey, b_p: DyadicKey, a: DyadicKey, b: DyadicKey,
        values: np.ndarray, ledger: CostLedger,
    ) -> np.ndarray:
        if level < self.switch_level:
            return cheb._column_contribution(a_c, b_p, b, values, self.phase, self.q, ledger)
        return cheb._row_contribution(a_c, b_p, b, values, self.phase, self.q, ledger)

    def out_len(self, level: int, a_c: DyadicKey, b_p: DyadicKey) -> int:
        return self.r

    def stage_out_max(self, level: int) -> int:
        return self.r

    def finalize(self, blocks: Dict[Pair, np.ndarray], ledger: CostLedger) -> Dict[Pair, np.ndarray]:
        if self.switch_level == self.L:
            return self._switch_all(blocks, ledger)
        return blocks

    def make_field(self, blocks: Dict[Pair, np.ndarray]) -> "PotentialField":
        weights = {a: v for (a, b), v in blocks.items()}
        return PotentialField(self.phase, self.d, self.N, "cheb", self.q, weights)


class IdEngine:
    """Sampled backend: adaptive-rank skeletons of actual source points.

    All factorizations (leaf IDs and stacked-skeleton recompressions) are
    precomputed here against the full source set; the stage loop then only
    applies the weight maps. Row samples are a tensor Chebyshev grid of
    rows_per_dim points per dimension in every leaf target box, and a pair's
    row set is all such samples inside its target box, with no proxy rows.
    """

    name = "id"

    def __init__(
        self,
        phase: PhaseEvaluator,
        d: int,
        N: int,
        tol: float,
        rows_per_dim: int = 4,
        sources: Optional[SourceSet] = None,
    ):
        self.phase = phase
        self.d = d
        self.N = N
        self.tol = tol
        self.rows_per_dim = rows_per_dim
        self.L = N.bit_length() - 1
        self.precompute_flops = 0
        self._row_pts: Dict[DyadicKey, np.ndarray] = {}
        self._stage0: Dict[DyadicKey, tuple[np.ndarray, np.ndarray]] = {}
        self._ops: Dict[tuple[int, DyadicKey, DyadicKey], object] = {}
        self._stage_max: Dict[int, int] = {}
        self._bins: Dict[DyadicKey, np.ndarray] = {}
        self._sources = sources
        if sources is not None:
            self.set_sources(sources)

    def _sampler(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return kernel_matrix(self.phase, xs, ys)

    def _targets_in(self, a: DyadicKey) -> np.ndarray:
        shift = self.L - a.level
        ranges = [range(c << shift, (c + 1) << shift) for c in a.coords]
        pts = [self._row_pts[DyadicKey(self.L, coords)] for coords in itertools.product(*ranges)]
        return np.vstack(pts)

    def set_sources(self, sources: SourceSet) -> None:
        self._sources = sources
        self._bins = sources.bin_by_leaf(self.L)
        self._precompute()

    def _precompute(self) -> None:
        src = self._sources
        assert src is not None
        for key in level_keys(self.d, self.L):
            self._row_pts[key] = cheb.cheb_grid(self.rows_per_dim, box_of(key)).points
        all_targets = np.vstack([self._row_pts[k] for k in level_keys(self.d, self.L)])
        ids: Dict[Pair, InterpolativeDecomposition] = {}
        root = DyadicKey(0, (0,) * self.d)
        for b in level_keys(self.d, self.L):
            idx = self._bins.get(b)
            if idx is None or idx.size == 0:
                dec = InterpolativeDecomposition(
                    np.arange(0), np.zeros((0, 0), dtype=complex), 0, points=np.zeros((0, self.d))
                )
            else:
                pos = src.positions[idx]
                M = self._sampler(all_targets, pos)
                dec = build_id(M, self.tol)
                dec.points = pos[dec.column_indices]
                self.precompute_flops += 4 * M.shape[0] * M.shape[1] * max(1, dec.rank)
            self._stage0[b] = (dec.interp_matrix, idx if idx is not None else np.arange(0))
            ids[(root, b)] = dec
        for level in range(self.L):
            max_len = 0
            for bp in level_keys(self.d, self.L - level - 1):
                bs = children(bp)
                for ac in level_keys(self.d, level + 1):
                    a = parent(ac)
                    child_ids = [ids[(a, bn)] for bn in bs]
                    op = build_translation_id(child_ids, self._targets_in(ac), self._sampler, self.tol)
                    self._ops[(level, ac, bp)] = op
                    rows = self._targets_in(ac).shape[0]
                    self.precompute_flops += 4 * rows * op.matrix.shape[1] * max(1, op.matrix.shape[0])
                    new_dec = InterpolativeDecomposition(
                        op.column_indices, op.matrix, op.matrix.shape[1], points=op.points
                    )
                    ids.setdefault((ac, bp), new_dec)
                    max_len = max(max_len, op.matrix.shape[0])
            self._stage_max[level] = max_len
        self._final_ids = {
            a: ids[(a, DyadicKey(0, (0,) * self.d))] for a in level_keys(self.d, self.L)
        } if self.L > 0 else {root: ids[(root, root)]}

    def init_blocks(self, leaf_keys, ledger: CostLedger) -> Dict[Pair, np.ndarray]:
        root = DyadicKey(0, (0,) * self.d)
        src = self._sources
        assert src is not None
        out: Dict[Pair, np.ndarray] = {}
        for key in leaf_keys:
            Z, idx = self._stage0[key]
            g = src.strengths[idx]
            out[(root, key)] = Z @ g if Z.size else np.zeros(Z.shape[0], dtype=complex)
            ledger.add_flops(2 * Z.shape[0] * Z.shape[1])
        return out

    def pre_stage(self, level: int, blocks: Dict[Pair, np.ndarray], ledger: CostLedger) -> Dict[Pair, np.ndarray]:
        return blocks

    def contribution(
        self, level: int, a_c: DyadicKey, b_p: DyadicKey, a: DyadicKey, b: DyadicKey,
        values: np.ndarray, ledger: CostLedger,
    ) -> np.ndarray:
        op = self._ops[(level, a_c, b_p)]
        sl = op.child_slices[child_index(b)]
        mat = op.matrix[:, sl]
        ledger.add_flops(2 * mat.shape[0] * mat.shape[1] + mat.shape[0])
        return mat @ values

    def out_len(self, level: int, a_c: DyadicKey, b_p: DyadicKey) -> int:
        return self._ops[(level, a_c, b_p)].matrix.shape[0]

    def stage_out_max(self, level: int) -> int:
        return self._stage_max[level]

    def finalize(self, blocks: Dict[Pair, np.ndarray], ledger: CostLedger) -> Dict[Pair, np.ndarray]:
        return blocks

    def make_field(self, blocks: Dict[Pair, np.ndarray]) -> "PotentialField":
        weights = {a: v for (a, b), v in blocks.items()}
        points = {a: self._final_ids[a].points for a in weights}
        return PotentialField(self.phase, self.d, self.N, "id", None, weights, points)


@dataclass
class PotentialField:
    """Per-target-leaf-box representation of the computed potential,
    evaluable anywhere in the unit cube."""

    phase: PhaseEvaluator
    d: int
    N: int
    backend: str
    q: Optional[int]
    weights: Dict[DyadicKey, np.ndarray]  # final weights per target leaf box
    skeleton_points: Dict[DyadicKey, np.ndarray] = field(default_factory=dict)  # id only
    ledger: Optional[CostLedger] = None

    def weight_vector(self, key: DyadicKey) -> np.ndarray:
        """Final weights of one target leaf box (backend-specific length)."""
        return self.weights[key]

    def target_keys(self):
        return sorted(self.weights, key=lambda k: k.coords)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.d:
            raise ValueError(f"evaluation points have dimension {points.shape[1]}, field has {self.d}")
        if not np.all(np.isfinite(points)):
            raise ValueError("evaluation points must be finite")
        if points.size and (points.min() < 0.0 or points.max() > 1.0):
            raise ValueError("evaluation points must lie in the unit cube")
        out = np.zeros(points.shape[0], dtype=complex)
        if points.shape[0] == 0:
            return out
        level = self.N.bit_length() - 1
        top = 1 << level
        idx = np.minimum((points * top).astype(int), top - 1)
        flat = np.zeros(points.shape[0], dtype=np.int64)
        for k in range(self.d - 1, -1, -1):
            flat = flat * top + idx[:, k]
        root = DyadicKey(0, (0,) * self.d)
        for f in np.unique(flat):
            sel = np.nonzero(flat == f)[0]
            coords = tuple(int((f // top**k) % top) for k in range(self.d))
            key = DyadicKey(level, coords)
            w = self.weights[key]
            if self.backend == "cheb":
                out[sel] = cheb.evaluate_block(key, root, w, points[sel], self.phase, self.q)
            elif w.shape[0]:
                out[sel] = kernel_matrix(self.phase, points[sel], self.skeleton_points[key]) @ w
        return out


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _translate_local(eng, level: int, blocks: Dict[Pair, np.ndarray], ledger: CostLedger) -> Dict[Pair, np.ndarray]:
    """One stage of per-child translations over a set of owned pairs.

    Iteration order is canonical (sorted pairs, children by child index), so
    any caller that owns the same pairs accumulates bit-identical sums.
    """
    out: Dict[Pair, np.ndarray] = {}
    for (a, b) in sorted(blocks.keys(), key=_pair_order):
        v = blocks[(a, b)]
        bp = parent(b)
        for a_c in children(a):
            contrib = eng.contribution(level, a_c, bp, a, b, v, ledger)
            key = (a_c, bp)
            if key in out:
                out[key] += contrib
            else:
                out[key] = contrib
    return out


def _apply_stages(eng, blocks: Dict[Pair, np.ndarray], ledger: CostLedger) -> Dict[Pair, np.ndarray]:
    for level in range(eng.L):
        blocks = eng.pre_stage(level, blocks, ledger)
        blocks = _translate_local(eng, level, blocks, ledger)
    return eng.finalize(blocks, ledger)


def make_engine(
    phase: PhaseEvaluator,
    d: int,
    N: int,
    q: int = 8,
    backend: str = "cheb",
    tol: float = 1e-7,
    rows_per_dim: int = 4,
    sources: Optional[SourceSet] = None,
):
    if N < 1 or (N & (N - 1)) != 0:
        raise ValueError(f"N={N} is not a power of two")
    if phase.dim is not None and phase.dim != d:
        raise ValueError(f"phase '{phase.name}' expects dimension {phase.dim}, got {d}")
    if backend == "cheb":
        eng = ChebEngine(phase, d, N, q)
        if sources is not None:
            eng.set_sources(sources)
        return eng
    if backend == "id":
        return IdEngine(phase, d, N, tol, rows_per_dim, sources)
    raise ValueError(f"unknown backend '{backend}'")


def butterfly_apply(
    sources: SourceSet,
    phase: PhaseEvaluator,
    N: int,
    q: int = 8,
    backend: str = "cheb",
    tol: float = 1e-7,
    rows_per_dim: int = 4,
    params: Optional[CostParams] = None,
) -> PotentialField:
    """Sequential butterfly evaluation; returns a field with a flop ledger."""
    d = sources.dim
    eng = make_engine(phase, d, N, q, backend, tol, rows_per_dim, sources)
    ledger = CostLedger(params if params is not None else CostParams())
    leaf_keys = list(level_keys(d, eng.L))
    blocks = eng.init_blocks(leaf_keys, ledger)
    blocks = _apply_stages(eng, blocks, ledger)
    fieldv = eng.make_field(blocks)
    fieldv.ledger = ledger
    return fieldv


def direct_apply(sources: SourceSet, phase: PhaseEvaluator, targets: np.ndarray) -> np.ndarray:
    """Brute-force reference sum, chunked to bound peak memory."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    m = targets.shape[0]
    out = np.zeros(m, dtype=complex)
    if sources.count == 0 or m == 0:
        return out
    chunk = max(1, (1 << 21) // max(1, sources.count))
    for start in range(0, m, chunk):
        block = targets[start : start + chunk]
        out[start : start + chunk] = kernel_matrix(phase, block, sources.positions) @ sources.strengths
    return out


def rel_sup_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """max |approx - exact| / max |exact|; undefined for zero references."""
    approx = np.asarray(approx)
    exact = np.asarray(exact)
    if approx.shape != exact.shape:
        raise ValueError("shape mismatch between approx and exact values")
    denom = float(np.max(np.abs(exact))) if exact.size else 0.0
    if denom == 0.0:
        raise AllZeroReferenceError("reference values are identically zero")
    return float(np.max(np.abs(approx - exact)) / denom)
