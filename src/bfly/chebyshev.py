"""Chebyshev tensor grids and the analytic low-rank weight operations.

Background
----------
Restricted to a target box A and source box B with diam(A) * diam(B) below
the phase's low-rank threshold, the oscillatory kernel exp(i*Phi(x, y))
factors numerically through a rank r = q^d expansion built from Lagrange
interpolation on tensor-product Chebyshev grids. Demodulating by the phase
at a box center makes the remaining factor smooth enough to interpolate:

  column side (weights live on a grid over B, centers taken in A):
      delta_t = exp(-i*Phi(x_A, b_t)) * sum_y exp(i*Phi(x_A, y)) L_t(y) g(y)
  row side (weights are demodulated potential samples on a grid over A):
      f(x) ~= exp(i*Phi(x, y_B)) * sum_t L_t(x) delta_t

Column weights are equivalent point sources at the grid nodes of B: the
induced approximation is f(x) ~= sum_t K(x, b_t) delta_t, which is what
makes the merge step a pure re-expansion of point masses. Half the stages
run on the column side, then one O(r^2) switch per pair moves to the row
side, where splitting target boxes is again a re-interpolation.

Grid conventions: first-kind Chebyshev nodes mapped affinely to each box
edge, stored in ascending order per dimension; tensor points are flattened
with dimension 0 varying fastest. Interpolation uses the barycentric form,
with exact node hits short-circuited so cardinality holds to the last bit.

The weight operations work on blocks of pairs (see the section below): one
phase evaluation and one contraction per child index cover a whole block,
and dyadic boxes being affine images of each other, the same 2^d reference
matrices serve every pair at every level.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .costs import CostLedger
from .geometry import (
    block_coords,
    leaf_runs,
    offset_index,
    parent_block,
    present_children,
    sum_children,
    to_children,
)
from .phases import PhaseEvaluator, _expi


@lru_cache(maxsize=None)
def _reference_nodes(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending first-kind nodes on [-1, 1] and their barycentric weights."""
    if q < 1:
        raise ValueError("need at least one point per dimension")
    k = np.arange(q)
    z = -np.cos(np.pi * (2 * k + 1) / (2 * q))
    w = np.ones(q)
    for i in range(q):
        diff = z[i] - np.delete(z, i)
        w[i] = 1.0 / np.prod(diff)
    w /= np.max(np.abs(w))  # common factor cancels in the barycentric ratio
    return z, w


def _basis_1d(q: int, box_lo: np.ndarray, box_w: float, coords: np.ndarray) -> np.ndarray:
    """Barycentric Lagrange basis values, shape (len(coords), q), on boxes of
    edge box_w whose lower edge box_lo holds one value per coordinate."""
    z, w = _reference_nodes(q)
    x = np.asarray(coords, dtype=float)
    # same expression as grid_points, so a grid's own points hit bit-exactly;
    # the reference-frame rescale alone can be off by an ulp
    nodes = box_lo[:, None] + box_w * (z + 1.0) / 2.0
    s = 2.0 * (x - box_lo) / box_w - 1.0
    diff = s[:, None] - z[None, :]
    hit = (diff == 0.0) | (x[:, None] == nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = w[None, :] / diff
        basis = terms / np.sum(terms, axis=1, keepdims=True)
    rows = np.any(hit, axis=1)
    if np.any(rows):
        basis[rows] = 0.0
        basis[hit] = 1.0
    return basis


def _tensor_basis(q: int, lower: np.ndarray, width, pts: np.ndarray) -> np.ndarray:
    """Tensor Lagrange basis at pts (n, d): (n, q^d), dimension 0 fastest
    in the flat index. lower (d, n) holds each point's box lower edges,
    width[k] the boxes' edge length in dimension k."""
    n, d = pts.shape
    acc = np.ones((n, 1))
    for k in range(d - 1, -1, -1):
        bk = _basis_1d(q, lower[k], width[k], pts[:, k])
        acc = (acc[:, :, None] * bk[:, None, :]).reshape(n, -1)
    return acc


@lru_cache(maxsize=None)
def _child_matrices_1d(q: int) -> np.ndarray:
    """(2, q, q) arrays m[h][t', t] = basis t' of [0, 1] at node t of half h."""
    halves = [grid_points(q, 1, np.array([h]))[:, 0] for h in range(2)]
    return np.stack([_basis_1d(q, np.zeros(q), 1.0, x).T for x in halves])


@lru_cache(maxsize=None)
def _child_matrices(q: int, d: int) -> np.ndarray:
    """(2^d, q^d, q^d) dense re-interpolation matrices, parent box to child n.

    M[n][t', t] is the parent tensor basis t' evaluated at child-n grid node
    t. Dyadic boxes are affine images of each other, so these reference
    matrices serve every level.
    """
    m1 = _child_matrices_1d(q)
    out = np.empty((1 << d, q**d, q**d))
    for n in range(1 << d):
        # dimension 0 varies fastest in the flat index, so it sits innermost
        acc = np.ones((1, 1))
        for k in range(d - 1, -1, -1):
            acc = np.kron(acc, m1[(n >> k) & 1])
        out[n] = acc
    return out


def box_centers(level: int, coords: np.ndarray) -> np.ndarray:
    """Centers of level-`level` boxes from integer coordinates (..., d)."""
    w = 1.0 / (1 << level)
    return coords * w + w / 2.0


@lru_cache(maxsize=None)
def _grid_layout(q: int, d: int) -> np.ndarray:
    """Node index along each dimension of every flat grid point: (d, q^d)."""
    which = (np.arange(q**d) // q ** np.arange(d)[:, None]) % q
    which.setflags(write=False)
    return which


def grid_points(q: int, level: int, coords: np.ndarray) -> np.ndarray:
    """Chebyshev grids of level-`level` boxes from integer coordinates:
    (..., d) -> (..., q^d, d), dimension 0 fastest. Each node is the box's
    lower edge plus w * (z + 1) / 2, w the edge length and z the reference
    node, the expression _basis_1d uses to recognise a node."""
    z, _ = _reference_nodes(q)
    w = 1.0 / (1 << level)
    d = coords.shape[-1]
    offsets = w * (z + 1.0) / 2.0
    which = _grid_layout(q, d)
    pts = np.empty(coords.shape[:-1] + (q**d, d))
    for k in range(d):
        pts[..., k] = ((coords[..., k] * w)[..., None] + offsets)[..., which[k]]
    return pts


@lru_cache(maxsize=None)
def _stage_matrices(q: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The child matrices laid out for contracting stacks of weight rows.

    column[n] is M[n].T, so rows @ column[n] applies M[n] to every row. row
    holds M[o] for every child offset o side by side, in canonical offset
    order, so one product interpolates a row onto all 2^d children.
    """
    m = _child_matrices(q, d)
    column = np.ascontiguousarray(np.transpose(m, (0, 2, 1)), dtype=complex)
    offsets = itertools.product((0, 1), repeat=d)
    row = np.concatenate([m[offset_index(o)] for o in offsets], axis=1).astype(complex)
    column.setflags(write=False)
    row.setflags(write=False)
    return column, row


def cached_matrix_bytes(q: int, d: int) -> int:
    """Bytes that `_child_matrices` and `_stage_matrices` keep for (q, d):
    one real and two complex (2^d, q^d, q^d) stacks, for the life of the
    process."""
    return (8 + 16 + 16) * (1 << d) * q ** (2 * d)


def _rows_times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat, with every result row independent of the other rows.

    numpy hands a single row to BLAS gemv, whose dot products round
    differently from the gemm kernel that any taller stack goes to; a lone
    row therefore goes through as a pair. A simulated rank may hold a single
    row of a stage, and must still reproduce the sequential bits.
    """
    if rows.shape[0] == 1:
        return (np.concatenate([rows, rows]) @ mat)[:1]
    return rows @ mat


# ---------------------------------------------------------------------------
# Weight operations on blocks of pairs. A block's weights are one array
# values[a..., b..., t]: axes 0..d-1 run over a rectangular block of target
# boxes A (level a_level, first coordinates a_lo), axes d..2d-1 over a block
# of source boxes B (level b_level, first coordinates b_lo), and the last
# axis over the q^d weights of the pair (A, B). Every operation is a few
# NumPy calls over the whole block, each row computed independently of the
# others, so a sub-block gives the same bits as the same rows of the whole.
# Ledgers are charged an array of flops per pair of the input block, which
# lets a caller charge each pair's cost to whoever holds the pair.
# ---------------------------------------------------------------------------


def init_source_weights(
    level: int,
    b_lo: Tuple[int, ...],
    b_shape: Tuple[int, ...],
    positions: np.ndarray,
    strengths: np.ndarray,
    leaves: np.ndarray,
    phase: PhaseEvaluator,
    q: int,
    ledger: Optional[CostLedger] = None,
) -> np.ndarray:
    """Column weights of the pairs (X, B) for a block of leaf boxes B, from
    the raw sources inside them: b_shape + (q^d,).

    leaves[i] holds the integer coordinates of the level-`level` box of
    source i, and the sources come sorted by leaf box in canonical order, so
    each box's moments are one segment sum. The demodulation center is the
    center of the whole target domain, since at the first stage the single
    target box is X itself. Empty boxes get zero weights and cost nothing.
    The ledger is charged an array of flops per box of the block.
    """
    d = len(b_lo)
    r = q**d
    out = np.zeros(tuple(b_shape) + (r,), dtype=complex)
    positions = np.asarray(positions, dtype=float).reshape(-1, d)
    strengths = np.asarray(strengths, dtype=complex)
    n = positions.shape[0]
    if n == 0:
        return out
    w = 1.0 / (1 << level)
    lo = leaves * w
    hi = lo + w
    inside_hi = (positions < hi) | ((hi == 1.0) & (positions <= 1.0))
    if not np.all((positions >= lo) & inside_hi):
        raise ValueError("source position outside its box")
    flat, starts = leaf_runs(leaves, b_lo, b_shape)
    if np.any(np.diff(flat) < 0):
        raise ValueError("sources must be sorted by leaf box")
    grid = grid_points(q, level, leaves[starts]).reshape(-1, d)
    ph = phase(np.full(d, 0.5), np.concatenate([positions, grid]))
    weighted = _tensor_basis(q, lo.T, (w,) * d, positions) * (_expi(ph[:n]) * strengths)[:, None]
    moments = np.add.reduceat(weighted, starts, axis=0)
    out.reshape(-1, r)[flat[starts]] = _expi(-ph[n:]).reshape(-1, r) * moments
    if ledger is not None:
        counts = np.bincount(flat, minlength=out.size // r)
        ledger.add_flops(((2 * r + 1) * counts + r * (counts > 0)).reshape(b_shape))
    return out


def _output_block(a_lo, b_lo, values, d):
    """The block of pairs (A_c, B_p) a stage over a block produces:
    (A_c first coordinates, A_c shape, B_p coordinates (bp_shape + (d,)))."""
    a_shape, b_shape = values.shape[:d], values.shape[d : 2 * d]
    bp_lo, bp_shape = parent_block(b_lo, b_shape)
    return tuple(2 * a for a in a_lo), tuple(2 * n for n in a_shape), block_coords(bp_lo, bp_shape)


def column_stage(
    a_level: int,
    a_lo: Tuple[int, ...],
    b_level: int,
    b_lo: Tuple[int, ...],
    values: np.ndarray,
    phase: PhaseEvaluator,
    q: int,
    ledger: Optional[CostLedger] = None,
    split: Tuple[int, ...] = (),
) -> np.ndarray:
    """One column stage: weights of the pairs (A_c, B_p) fed by a block.

    The output block holds every child A_c of the block's target boxes and
    every parent B_p of its source boxes. Children of B_p outside the block
    are left out, so the partial sums of a rank's block add up across ranks;
    children that differ in the split dimensions are summed apart
    (geometry.sum_children). One phase call covers the demodulation on the
    parent grids and the modulation on every present child's grid.
    """
    d = len(a_lo)
    r = q**d
    ac_lo, ac_shape, bp = _output_block(a_lo, b_lo, values, d)
    kids = list(present_children(b_lo, values.shape[d : 2 * d]))
    xc = box_centers(a_level + 1, block_coords(ac_lo, ac_shape))
    grids = [grid_points(q, b_level - 1, bp)] + [grid_points(q, b_level, 2 * bp + o) for o, _ in kids]
    ph = phase(
        xc.reshape((1,) + ac_shape + (1,) * d + (1, d)),
        np.stack(grids).reshape((len(grids),) + (1,) * d + bp.shape[:-1] + (r, d)),
    )
    demod = _expi(-ph[0])
    if ledger is not None:
        # each pair feeds the 2^d children of its target box
        ledger.add_flops(np.full(values.shape[: 2 * d], (2 * r * r + 3 * r) << d))
    contribs = (
        (offset, _column_contribution(offset, values[(slice(None),) * d + index], _expi(ph[1 + i]), demod, q))
        for i, (offset, index) in enumerate(kids)
    )
    return sum_children(contribs, split)


def _column_contribution(
    offset: Tuple[int, ...],
    values: np.ndarray,
    mod: np.ndarray,
    demod: np.ndarray,
    q: int,
) -> np.ndarray:
    """Child `offset`'s share of a column stage, for a whole output block.

    values[a..., b..., :] are the weights of the pairs (A, B_o), B_o the
    child `offset` of the output's B_p: point sources at the child grid
    nodes. Each is modulated for every child A_c of A (mod), re-expanded on
    the parent grid by M[n] and demodulated (demod).
    """
    d = len(offset)
    r = q**d
    # A -> each of its children A_c. np.multiply, not `*`: numpy may reuse a
    # large temporary right operand with the operands swapped, which rounds
    # complex products differently from a small block's rows.
    rows = np.multiply(mod, to_children(values, d)).reshape(-1, r)
    w = _rows_times(rows, _stage_matrices(q, d)[0][offset_index(offset)])
    return demod * w.reshape(demod.shape)


def row_stage(
    a_level: int,
    a_lo: Tuple[int, ...],
    b_level: int,
    b_lo: Tuple[int, ...],
    values: np.ndarray,
    phase: PhaseEvaluator,
    q: int,
    ledger: Optional[CostLedger] = None,
    split: Tuple[int, ...] = (),
) -> np.ndarray:
    """One row stage: weights of the pairs (A_c, B_p) fed by a block, with
    the output block, partial sums, split and flops of column_stage. One
    phase call covers the new grids against the parent and every present
    child center."""
    d = len(a_lo)
    r = q**d
    ac_lo, ac_shape, bp = _output_block(a_lo, b_lo, values, d)
    kids = list(present_children(b_lo, values.shape[d : 2 * d]))
    new_grid = grid_points(q, a_level + 1, block_coords(ac_lo, ac_shape))
    centers = [box_centers(b_level - 1, bp)] + [box_centers(b_level, 2 * bp + o) for o, _ in kids]
    ph = phase(
        new_grid.reshape((1,) + ac_shape + (1,) * d + (r, d)),
        np.stack(centers).reshape((len(centers),) + (1,) * d + bp.shape[:-1] + (1, d)),
    )
    if ledger is not None:
        ledger.add_flops(np.full(values.shape[: 2 * d], (2 * r * r + 3 * r) << d))
    contribs = (
        (offset, _row_contribution(values[(slice(None),) * d + index], ph[1 + i] - ph[0], q))
        for i, (offset, index) in enumerate(kids)
    )
    return sum_children(contribs, split)


def _row_contribution(
    values: np.ndarray,
    shift: np.ndarray,
    q: int,
) -> np.ndarray:
    """One child's share of a row stage, for a whole output block.

    values[a..., b..., :] are demodulated potential samples on the grid of
    each A; they are interpolated onto the grids of all its children A_c at
    once and re-centred from the child source box onto its parent, a phase
    shift of Phi(x, y_child) - Phi(x, y_parent) at each new grid node.
    """
    d = (values.ndim - 1) // 2
    r = q**d
    a_shape = values.shape[:d]
    bp_shape = values.shape[d : 2 * d]
    w = _rows_times(values.reshape(-1, r), _stage_matrices(q, d)[1])
    # (a..., b..., o_0..o_{d-1}, t) -> (a_0, o_0, ..., a_{d-1}, o_{d-1}, b..., t)
    w = w.reshape(a_shape + bp_shape + (2,) * d + (r,))
    perm = [ax for k in range(d) for ax in (k, 2 * d + k)] + list(range(d, 2 * d)) + [3 * d]
    w = w.transpose(perm).reshape(shift.shape)
    return _expi(shift) * w


# kernel entries evaluated at once by middle_switch, which bounds its memory
_SWITCH_CHUNK = 1 << 18


def middle_switch(
    a_level: int,
    a_lo: Tuple[int, ...],
    b_level: int,
    b_lo: Tuple[int, ...],
    values: np.ndarray,
    phase: PhaseEvaluator,
    q: int,
    ledger: Optional[CostLedger] = None,
) -> np.ndarray:
    """Column weights of a block of pairs to row weights, in O(r^2) each.

    For each pair (A, B), evaluates the column expansion (equivalent sources
    at the grid of B) at the grid of A, then demodulates by the phase at B's
    center. The r x r kernel blocks are built a bounded number at a time,
    in runs of pairs in canonical order that may split a target box's row.
    """
    d = len(a_lo)
    r = q**d
    a_shape, b_shape = values.shape[:d], values.shape[d : 2 * d]
    pairs = a_shape + b_shape
    a_grid = grid_points(q, a_level, block_coords(a_lo, a_shape)).reshape(a_shape + (1,) * d + (r, d))
    b_coords = block_coords(b_lo, b_shape)
    b_grid = grid_points(q, b_level, b_coords).reshape((1,) * d + b_shape + (r, d))
    xs = a_grid.reshape(-1, r, 1, d)
    ys = b_grid.reshape(-1, 1, r, d)
    v = values.reshape(-1, r, 1)
    sampled = np.empty((v.shape[0], r), dtype=complex)
    step = max(1, _SWITCH_CHUNK // (r * r))
    for i in range(0, v.shape[0], step):
        a, b = np.divmod(np.arange(i, min(i + step, v.shape[0])), ys.shape[0])
        kmat = _expi(phase(xs[a], ys[b]))
        sampled[i : i + step] = (kmat @ v[i : i + step])[..., 0]
    yb = box_centers(b_level, b_coords).reshape((1,) * d + b_shape + (1, d))
    demod = _expi(-phase(a_grid, yb))
    if ledger is not None:
        ledger.add_flops(np.full(pairs, 2 * r * r + 2 * r))
    return demod * sampled.reshape(pairs + (r,))


def evaluate_block(
    level: int,
    coords: np.ndarray,
    y_b: np.ndarray,
    values: np.ndarray,
    pts: np.ndarray,
    phase: PhaseEvaluator,
    q: int,
) -> np.ndarray:
    """Row weights evaluated at points, one pair per point:
    f(x_i) = exp(i*Phi(x_i, y_B)) sum_t L_t(x_i) values[i, t].

    pts[i] lies in the level-`level` target box with integer coordinates
    coords[i], which the caller works out from the point itself
    (PotentialField.evaluate uses geometry.leaf_coords); values[i] holds
    that pair's q^d row weights, and y_B is the center of the source box the
    pairs share. Every result depends on its own row only, so a point gives
    the same bits in any batch.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    w = 1.0 / (1 << level)
    lower = np.asarray(coords) * w
    basis = _tensor_basis(q, lower.T, (w,) * pts.shape[1], pts)
    return _expi(phase(pts, y_b)) * np.einsum("ij,ij->i", basis, values)
