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

A level's weights are one complex array (LevelBlock) of shape
(2^l,)*d + (2^(L-l),)*d + (width,): target box coordinates, then source box
coordinates, in canonical order, then the pair's weights. A stage maps the
block of level l to the block of level l + 1, summing each output pair's
2^d children in canonical coordinate order (dimension 0 most significant).
The cheb stage is a handful of whole-block NumPy calls per child; the id
stage applies each pair's precomputed map to the same zero-padded array.

butterfly_apply is the sequential reference and runs the stages on one
block holding every pair. The distributed simulator in bfly.parallel runs
the same stage on each rank's rectangular sub-block; every row of a stage
is computed independently of the other rows (see
chebyshev._rows_times), which is what makes its p = 1 run bit-identical.
The final level becomes a PotentialField: one array over the target leaves,
evaluated a chunk of points at a time with a few whole-chunk NumPy calls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import chebyshev as cheb
from .costs import CostLedger, CostParams
from .geometry import (
    Block,
    DyadicKey,
    block_coords,
    box_of,
    center_of,
    children,
    leaf_coords,
    level_keys,
    offset_index,
    parent,
    parent_block,
    present_children,
)
from .lowrank import InterpolativeDecomposition, TranslationOperatorID, build_id, build_translation_id
from .phases import PhaseEvaluator, kernel_matrix


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
        """Indices of the sources in each level-`level` box (see
        geometry.leaf_coords)."""
        if self.count == 0:
            return {}
        idx = leaf_coords(self.positions, level)
        flat = np.ravel_multi_index(tuple(idx.T), (1 << level,) * self.dim, order="F")
        order = np.argsort(flat, kind="stable")
        boundaries = np.nonzero(np.diff(flat[order]))[0] + 1
        return {
            DyadicKey(level, tuple(int(c) for c in idx[chunk[0]])): chunk for chunk in np.split(order, boundaries)
        }


@dataclass
class LevelBlock:
    """Weights of a rectangular block of the pairs of one level.

    values[i..., j..., :] belongs to the pair (A, B) whose target box A has
    level `level` and coordinates a_lo + i, and whose source box B has level
    L - level and coordinates b_lo + j. The last axis holds the pair's
    weights, zero-padded to the level's width. The sequential engine holds
    one block covering every pair; a simulated rank holds its region.
    """

    level: int
    a_lo: Tuple[int, ...]
    b_lo: Tuple[int, ...]
    values: np.ndarray

    def next_boxes(self) -> tuple[Block, Block]:
        """(lo, shape) of the target boxes A_c and of the source boxes B_p
        of the block of pairs that a stage over this block produces."""
        d = len(self.a_lo)
        a_shape, b_shape = self.values.shape[:d], self.values.shape[d : 2 * d]
        children = (tuple(2 * a for a in self.a_lo), tuple(2 * n for n in a_shape))
        return children, parent_block(self.b_lo, b_shape)

    def target_keys(self):
        """The block's target boxes, in canonical order."""
        d = len(self.a_lo)
        for i in np.ndindex(*self.values.shape[:d]):
            yield DyadicKey(self.level, tuple(a + k for a, k in zip(self.a_lo, i)))


def _final_values(blocks: Sequence[LevelBlock], N: int) -> np.ndarray:
    """The weights of the final blocks (whose one source box is the root)
    as one array (N,)*d + (width,), one slice assignment per block."""
    d = len(blocks[0].a_lo)
    out = np.zeros((N,) * d + blocks[0].values.shape[-1:], dtype=complex)
    for blk in blocks:
        a_shape = blk.values.shape[:d]
        index = tuple(slice(lo, lo + n) for lo, n in zip(blk.a_lo, a_shape))
        out[index] = blk.values.reshape(a_shape + out.shape[-1:])
    return out


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
        self._positions = np.zeros((0, d))
        self._strengths = np.zeros(0, dtype=complex)
        self._leaves = np.zeros((0, d), dtype=int)

    def set_sources(self, sources: SourceSet) -> None:
        """Keep the sources sorted by leaf box in canonical order."""
        leaves = leaf_coords(sources.positions, self.L)
        order = np.argsort(np.ravel_multi_index(tuple(leaves.T), (self.N,) * self.d), kind="stable")
        self._positions = sources.positions[order]
        self._strengths = sources.strengths[order]
        self._leaves = leaves[order]

    def init_blocks(self, b_lo: Tuple[int, ...], b_shape: Tuple[int, ...], ledger: CostLedger) -> LevelBlock:
        lo = np.asarray(b_lo)
        inside = np.all((self._leaves >= lo) & (self._leaves < lo + b_shape), axis=1)
        values = cheb.init_source_weights(
            self.L, b_lo, b_shape, self._positions[inside], self._strengths[inside],
            self._leaves[inside], self.phase, self.q, ledger,
        )
        return LevelBlock(0, (0,) * self.d, tuple(b_lo), values.reshape((1,) * self.d + values.shape))

    def _switch(self, blk: LevelBlock, ledger: CostLedger) -> LevelBlock:
        values = cheb.middle_switch(
            blk.level, blk.a_lo, self.L - blk.level, blk.b_lo, blk.values, self.phase, self.q, ledger
        )
        return LevelBlock(blk.level, blk.a_lo, blk.b_lo, values)

    def stage(self, level: int, blk: LevelBlock, ledger: CostLedger) -> LevelBlock:
        if level == self.switch_level:
            blk = self._switch(blk, ledger)
        translate = cheb.column_stage if level < self.switch_level else cheb.row_stage
        values = translate(level, blk.a_lo, self.L - level, blk.b_lo, blk.values, self.phase, self.q, ledger)
        (ac_lo, _), (bp_lo, _) = blk.next_boxes()
        return LevelBlock(level + 1, ac_lo, bp_lo, values)

    def finalize(self, blk: LevelBlock, ledger: CostLedger) -> LevelBlock:
        if self.switch_level == self.L:
            return self._switch(blk, ledger)
        return blk

    def make_field(self, blocks: Sequence[LevelBlock]) -> "PotentialField":
        return PotentialField(self.phase, self.d, self.N, "cheb", self.q, _final_values(blocks, self.N))


class IdEngine:
    """Sampled backend: adaptive-rank skeletons of actual source points.

    All factorizations (leaf IDs and stacked-skeleton recompressions) are
    precomputed here against the full source set; the stages then only
    apply the per-pair weight maps, reading and writing level arrays whose
    width is the level's largest rank. Row samples are a tensor Chebyshev
    grid of rows_per_dim points per dimension in every leaf target box, and
    a pair's row set is all such samples inside its target box, with no
    proxy rows.
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
        self._stage0: Dict[Tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        # per level: (A_c coords + B_p coords) -> translation operator
        self._ops: Dict[int, Dict[Tuple[int, ...], TranslationOperatorID]] = {}
        self._widths: Dict[int, int] = {}
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
        ids: Dict[tuple[DyadicKey, DyadicKey], InterpolativeDecomposition] = {}
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
            self._stage0[b.coords] = (dec.interp_matrix, idx if idx is not None else np.arange(0))
            ids[(root, b)] = dec
        self._widths[0] = max(dec.rank for dec in ids.values())
        for level in range(self.L):
            ops: Dict[Tuple[int, ...], TranslationOperatorID] = {}
            for bp in level_keys(self.d, self.L - level - 1):
                bs = children(bp)
                for ac in level_keys(self.d, level + 1):
                    a = parent(ac)
                    child_ids = [ids[(a, bn)] for bn in bs]
                    targets = self._targets_in(ac)
                    op = build_translation_id(child_ids, targets, self._sampler, self.tol)
                    ops[ac.coords + bp.coords] = op
                    self.precompute_flops += 4 * targets.shape[0] * op.matrix.shape[1] * max(1, op.matrix.shape[0])
                    ids[(ac, bp)] = InterpolativeDecomposition(
                        op.column_indices, op.matrix, op.matrix.shape[1], points=op.points
                    )
            self._ops[level] = ops
            self._widths[level + 1] = max(op.matrix.shape[0] for op in ops.values())
        # final skeletons as arrays over the target leaves, padded with the
        # leaf center (whose weight is always 0) up to the final width
        finals = [ids[(a, root)].points for a in level_keys(self.d, self.L)]
        leaves = (self.N,) * self.d
        self._final_ranks = np.array([len(pts) for pts in finals]).reshape(leaves)
        centers = cheb.box_centers(self.L, block_coords((0,) * self.d, leaves)).reshape(-1, 1, self.d)
        skeleton = np.repeat(centers, self._widths[self.L], axis=1)
        for slots, pts in zip(skeleton, finals):
            slots[: len(pts)] = pts
        self._final_skeleton = skeleton.reshape(leaves + skeleton.shape[1:])

    def init_blocks(self, b_lo: Tuple[int, ...], b_shape: Tuple[int, ...], ledger: CostLedger) -> LevelBlock:
        src = self._sources
        assert src is not None
        out = np.zeros(tuple(b_shape) + (self._widths[0],), dtype=complex)
        for j in np.ndindex(*b_shape):
            Z, idx = self._stage0[tuple(lo + k for lo, k in zip(b_lo, j))]
            if Z.size:
                out[j][: Z.shape[0]] = Z @ src.strengths[idx]
            ledger.add_flops(2 * Z.shape[0] * Z.shape[1])
        return LevelBlock(0, (0,) * self.d, tuple(b_lo), out.reshape((1,) * self.d + out.shape))

    def stage(self, level: int, blk: LevelBlock, ledger: CostLedger) -> LevelBlock:
        """Apply each pair's translation map, child by child in canonical
        order, so partial sums over a rank's children add up across ranks."""
        d = self.d
        (ac_lo, ac_shape), (bp_lo, bp_shape) = blk.next_boxes()
        out = np.zeros(ac_shape + bp_shape + (self._widths[level + 1],), dtype=complex)
        ops = self._ops[level]
        for offset, index in present_children(blk.b_lo, blk.values.shape[d : 2 * d]):
            n = offset_index(offset)
            child_values = blk.values[(slice(None),) * d + index]
            for i in np.ndindex(*ac_shape):
                ac = tuple(lo + k for lo, k in zip(ac_lo, i))
                a_idx = tuple(k // 2 for k in i)
                for j in np.ndindex(*bp_shape):
                    op = ops[ac + tuple(lo + k for lo, k in zip(bp_lo, j))]
                    mat = op.matrix[:, op.child_slices[n]]
                    out[i + j][: mat.shape[0]] += mat @ child_values[a_idx + j][: mat.shape[1]]
                    ledger.add_flops(2 * mat.shape[0] * mat.shape[1] + mat.shape[0])
        return LevelBlock(level + 1, ac_lo, bp_lo, out)

    def finalize(self, blk: LevelBlock, ledger: CostLedger) -> LevelBlock:
        return blk

    def make_field(self, blocks: Sequence[LevelBlock]) -> "PotentialField":
        return PotentialField(
            self.phase, self.d, self.N, "id", None, _final_values(blocks, self.N),
            self._final_ranks, self._final_skeleton,
        )


# (point x weight) entries PotentialField.evaluate gathers at once, which
# bounds its memory
_EVAL_CHUNK = 1 << 16


@dataclass(eq=False)
class PotentialField:
    """The computed potential as the final level's weights, evaluable
    anywhere in the unit cube.

    values[a_0, ..., a_{d-1}, :] holds the weights of the pair (A, root) for
    the target leaf box A with coordinates a, so values has shape
    (N,)*d + (width,). For id, ranks[a] is the length of A's weight vector
    and skeleton[a..., t, :] the source point that weight t sits at; the
    padded slots hold A's center and weight exactly 0.
    """

    phase: PhaseEvaluator
    d: int
    N: int
    backend: str
    q: Optional[int]
    values: np.ndarray
    ranks: Optional[np.ndarray] = None  # id only
    skeleton: Optional[np.ndarray] = None  # id only
    ledger: Optional[CostLedger] = None

    @property
    def level(self) -> int:
        return self.N.bit_length() - 1

    def weight_vector(self, key: DyadicKey) -> np.ndarray:
        """Final weights of one target leaf box (backend-specific length)."""
        if key.level != self.level or key.dim != self.d:
            raise KeyError(key)
        v = self.values[key.coords]
        return v if self.ranks is None else v[: self.ranks[key.coords]]

    def target_keys(self):
        return [DyadicKey(self.level, c) for c in np.ndindex(*self.values.shape[: self.d])]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """The potential at each point: a few whole-batch NumPy calls per
        chunk of points, each result independent of the rest of the batch."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.d:
            raise ValueError(f"evaluation points have dimension {points.shape[1]}, field has {self.d}")
        if not np.all(np.isfinite(points)):
            raise ValueError("evaluation points must be finite")
        if points.size and (points.min() < 0.0 or points.max() > 1.0):
            raise ValueError("evaluation points must lie in the unit cube")
        out = np.zeros(points.shape[0], dtype=complex)
        width = self.values.shape[-1]
        if points.shape[0] == 0 or width == 0:
            return out
        leaves = leaf_coords(points, self.level)
        flat = np.ravel_multi_index(tuple(leaves.T), self.values.shape[: self.d])
        values = self.values.reshape(-1, width)
        skeleton = self.skeleton.reshape(-1, width, self.d) if self.backend == "id" else None
        root = center_of(DyadicKey(0, (0,) * self.d))
        step = max(1, _EVAL_CHUNK // width)
        for start in range(0, points.shape[0], step):
            sel = slice(start, start + step)
            idx = flat[sel]
            if skeleton is None:
                out[sel] = cheb.evaluate_block(
                    self.level, leaves[sel], root, values[idx], points[sel], self.phase, self.q
                )
            else:
                kernel = cheb._expi(cheb._phase_on(self.phase, points[sel, None, :], skeleton[idx]))
                out[sel] = np.einsum("ij,ij->i", kernel, values[idx])
        return out


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


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
    blk = eng.init_blocks((0,) * d, (N,) * d, ledger)
    for level in range(eng.L):
        blk = eng.stage(level, blk, ledger)
    fieldv = eng.make_field([eng.finalize(blk, ledger)])
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
