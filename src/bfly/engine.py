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
stage is one batched matrix-vector product per child, each pair with its
own precomputed map, kept zero-padded in one array per level (IdEngine).
Both backends start from the sources sorted by leaf box, so a block's leaf
weights are one segment sum.

butterfly_apply is the sequential reference and runs the stages on one
block holding every pair. The distributed simulator in bfly.parallel runs
the same stage on each rank's rectangular sub-block; every row of a stage
is computed independently of the other rows (see
chebyshev._rows_times), which is what makes its p = 1 run bit-identical.
The final level becomes a PotentialField: one array over the target leaves,
evaluated a chunk of points at a time with a few whole-chunk NumPy calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import chebyshev as cheb
from .costs import CostLedger, CostParams
from .geometry import (
    Block,
    DyadicKey,
    block_coords,
    leaf_coords,
    leaf_order,
    leaf_runs,
    offset_index,
    parent_block,
    present_children,
    to_children,
)
from .lowrank import build_id, build_translation_id
from .phases import PhaseEvaluator, _expi, kernel_matrix


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


def _block_index(lo: Tuple[int, ...], shape: Tuple[int, ...]) -> tuple:
    """The index that selects a block of boxes from an array over a level."""
    return tuple(slice(a, a + n) for a, n in zip(lo, shape))


def _final_values(blocks: Sequence[LevelBlock], N: int) -> np.ndarray:
    """The weights of the final blocks (whose one source box is the root)
    as one array (N,)*d + (width,), one slice assignment per block."""
    d = len(blocks[0].a_lo)
    out = np.zeros((N,) * d + blocks[0].values.shape[-1:], dtype=complex)
    for blk in blocks:
        a_shape = blk.values.shape[:d]
        out[_block_index(blk.a_lo, a_shape)] = blk.values.reshape(a_shape + out.shape[-1:])
    return out


# ---------------------------------------------------------------------------
# Backend drivers
# ---------------------------------------------------------------------------


class _SortedSources:
    """An engine's sources, sorted by leaf box in canonical order
    (geometry.leaf_order): a block of leaves holds the sources a mask picks,
    and each leaf's sources are one run of them."""

    L: int

    def set_sources(self, sources: SourceSet) -> None:
        order, leaves = leaf_order(sources.positions, self.L)
        self._positions = sources.positions[order]
        self._strengths = sources.strengths[order]
        self._leaves = leaves[order]

    def _inside(self, b_lo: Tuple[int, ...], b_shape: Tuple[int, ...]) -> np.ndarray:
        """Which of the sorted sources lie in the block of leaves b_lo/b_shape."""
        lo = np.asarray(b_lo)
        return np.all((self._leaves >= lo) & (self._leaves < lo + b_shape), axis=1)


class ChebEngine(_SortedSources):
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

    def init_blocks(self, b_lo: Tuple[int, ...], b_shape: Tuple[int, ...], ledger: CostLedger) -> LevelBlock:
        inside = self._inside(b_lo, b_shape)
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


class IdEngine(_SortedSources):
    """Sampled backend: adaptive-rank skeletons of actual source points.

    All factorizations (leaf IDs and stacked-skeleton recompressions) are
    precomputed against the full source set, one pair at a time, into arrays
    over each level's pairs: _ranks[l], and _maps[l], the maps of stage l
    zero-padded to one array (w_{l+1},) + pairs of level l+1 + (2^d, w_l),
    w_l the largest rank of level l, whose entry [t, a_c..., b_p..., n, s]
    carries weight s of (parent(A_c), child n of B_p) into weight t of
    (A_c, B_p). Rows come first so the array can be filled with room for any
    rank and cut to the level's width without a copy or touching the room.
    A stage is one batched matrix-vector product per present child, the leaf
    initialization a segment sum over the leaf-sorted sources (_interp holds
    each source's column of its leaf's interpolation matrix).

    Row samples are a tensor Chebyshev grid of rows_per_dim points per
    dimension in every leaf target box, and a pair's row set is all such
    samples inside its target box, with no proxy rows.
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
        if sources is not None:
            self.set_sources(sources)

    def _sampler(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return kernel_matrix(self.phase, xs, ys)

    def set_sources(self, sources: SourceSet) -> None:
        super().set_sources(sources)
        self._precompute()

    def _padded_skeleton(self, level: int, width: int) -> np.ndarray:
        """Skeleton points of the pairs of a level, pairs + (width, d), every
        slot holding the center of the pair's target box until filled."""
        d, n = self.d, 1 << level
        centers = cheb.box_centers(level, block_coords((0,) * d, (n,) * d))
        shape = (n,) * d + (self.N >> level,) * d + (width, d)
        return np.array(np.broadcast_to(centers.reshape((n,) * d + (1,) * d + (1, d)), shape))

    def _precompute(self) -> None:
        d, L, N = self.d, self.L, self.N
        rows = cheb.grid_points(self.rows_per_dim, L, block_coords((0,) * d, (N,) * d))
        all_rows = rows.reshape(-1, d)
        # leaf IDs against every row sample, written into room for any rank
        _, starts = leaf_runs(self._leaves, (0,) * d, (N,) * d)
        counts = np.diff(np.append(starts, len(self._leaves)))
        room = min(int(np.max(counts, initial=0)), len(all_rows))
        ranks = np.zeros((1,) * d + (N,) * d, dtype=int)
        skeleton = self._padded_skeleton(0, room)
        interp = np.zeros((len(self._leaves), room), dtype=complex)
        for i, n in zip(starts, counts):
            pair = (0,) * d + tuple(self._leaves[i])
            M = self._sampler(all_rows, self._positions[i : i + n])
            dec = build_id(M, self.tol)
            self.precompute_flops += 4 * M.shape[0] * M.shape[1] * max(1, dec.rank)
            ranks[pair] = dec.rank
            skeleton[pair][: dec.rank] = self._positions[i : i + n][dec.column_indices]
            interp[i : i + n, : dec.rank] = dec.matrix.T
        width = int(np.max(ranks))
        self._interp = interp[:, :width]
        self._ranks = [ranks]
        self._maps = []
        skeleton = skeleton[..., :width, :]
        kids = [tuple((n >> k) & 1 for k in range(d)) for n in range(1 << d)]
        for level in range(L):
            # pair (A_c, B_p) of level + 1 recompresses the skeletons of
            # (parent(A_c), B_n), B_n the children of B_p in child order,
            # against the row samples of the leaves inside A_c
            shift = L - level - 1
            room = min(self.rows_per_dim**d << (d * shift), len(kids) * width)
            n_a, n_b = 2 << level, 1 << shift
            out_ranks = np.zeros((n_a,) * d + (n_b,) * d, dtype=int)
            out_skeleton = self._padded_skeleton(level + 1, room)
            maps = np.zeros((room,) + out_ranks.shape + (len(kids), width), dtype=complex)
            for bp in np.ndindex(*(n_b,) * d):
                for ac in np.ndindex(*(n_a,) * d):
                    ins = [tuple(c // 2 for c in ac) + tuple(2 * b + o for b, o in zip(bp, kid)) for kid in kids]
                    child_ranks = [ranks[p] for p in ins]
                    targets = rows[tuple(slice(c << shift, (c + 1) << shift) for c in ac)].reshape(-1, d)
                    dec = build_translation_id(
                        [skeleton[p][:r] for p, r in zip(ins, child_ranks)], targets, self._sampler, self.tol
                    )
                    self.precompute_flops += 4 * targets.shape[0] * dec.matrix.shape[1] * max(1, dec.rank)
                    pair = ac + bp
                    out_ranks[pair] = dec.rank
                    out_skeleton[pair][: dec.rank] = dec.points
                    for n, cols in enumerate(np.split(dec.matrix, np.cumsum(child_ranks)[:-1], axis=1)):
                        maps[(slice(0, dec.rank),) + pair + (n, slice(0, cols.shape[1]))] = cols
            ranks, width = out_ranks, int(np.max(out_ranks))
            skeleton = out_skeleton[..., :width, :]
            self._ranks.append(ranks)
            self._maps.append(maps[:width])
        # the final pairs (A, root) as arrays over the target leaves, the
        # padded slots holding the leaf center and weight exactly 0
        self._final_ranks = ranks.reshape((N,) * d)
        self._final_skeleton = skeleton.reshape((N,) * d + skeleton.shape[-2:])

    def init_blocks(self, b_lo: Tuple[int, ...], b_shape: Tuple[int, ...], ledger: CostLedger) -> LevelBlock:
        """The leaf weights Z @ g of a block of leaf boxes, as one segment sum."""
        out = np.zeros(tuple(b_shape) + self._interp.shape[1:], dtype=complex)
        inside = self._inside(b_lo, b_shape)
        flat, starts = leaf_runs(self._leaves[inside], b_lo, b_shape)
        if starts.size:
            weighted = self._interp[inside] * self._strengths[inside, None]
            out.reshape(-1, out.shape[-1])[flat[starts]] = np.add.reduceat(weighted, starts, axis=0)
        ranks = self._ranks[0][(0,) * self.d + _block_index(b_lo, b_shape)].reshape(-1)
        ledger.add_flops(2 * np.sum(ranks[flat]))
        return LevelBlock(0, (0,) * self.d, tuple(b_lo), out.reshape((1,) * self.d + out.shape))

    def stage(self, level: int, blk: LevelBlock, ledger: CostLedger) -> LevelBlock:
        """Apply every pair's map, child by child in canonical order, so
        partial sums over a rank's children add up across ranks. Each pair's
        product is its own matrix-vector product, so any block of pairs gives
        the bits of the same pairs in the whole level."""
        d = self.d
        (ac_lo, ac_shape), (bp_lo, bp_shape) = blk.next_boxes()
        pairs = _block_index(ac_lo + bp_lo, ac_shape + bp_shape)
        maps = np.moveaxis(self._maps[level][(slice(None),) + pairs], 0, -3)
        out_ranks = self._ranks[level + 1][pairs]
        in_ranks = self._ranks[level][_block_index(blk.a_lo + blk.b_lo, blk.values.shape[: 2 * d])]
        out = None
        for offset, index in present_children(blk.b_lo, blk.values.shape[d : 2 * d]):
            child = (slice(None),) * d + index
            contrib = np.matmul(maps[..., offset_index(offset), :], to_children(blk.values[child], d)[..., None])
            out = contrib[..., 0] if out is None else np.add(out, contrib[..., 0], out=out)
            ledger.add_flops(np.sum(out_ranks * (2 * to_children(in_ranks[child], d) + 1)))
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
        root = np.full(self.d, 0.5)
        step = max(1, _EVAL_CHUNK // width)
        for start in range(0, points.shape[0], step):
            sel = slice(start, start + step)
            idx = flat[sel]
            if skeleton is None:
                out[sel] = cheb.evaluate_block(
                    self.level, leaves[sel], root, values[idx], points[sel], self.phase, self.q
                )
            else:
                kernel = _expi(self.phase(points[sel, None, :], skeleton[idx]))
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
