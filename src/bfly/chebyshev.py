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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .costs import CostLedger
from .geometry import BoxRegion, DyadicKey, box_of, center_of, child_index
from .phases import PhaseEvaluator, kernel_matrix


@dataclass(frozen=True)
class ChebGrid:
    """Tensor-product Chebyshev grid on a box: q points per dimension."""

    q: int
    box: BoxRegion
    nodes1d: Tuple[Tuple[float, ...], ...]
    points: np.ndarray  # (q^d, d), dimension 0 fastest

    @property
    def rank(self) -> int:
        return self.points.shape[0]


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


@lru_cache(maxsize=None)
def cheb_grid(q: int, box: BoxRegion) -> ChebGrid:
    """Chebyshev grid of q points per dimension on a box."""
    z, _ = _reference_nodes(q)
    d = len(box.lower)
    nodes = [box.lower[k] + box.width[k] * (z + 1.0) / 2.0 for k in range(d)]
    mesh = np.meshgrid(*nodes, indexing="ij")
    points = np.stack([g.flatten(order="F") for g in mesh], axis=1)
    return ChebGrid(q, box, tuple(tuple(n) for n in nodes), points)


def _basis_1d(q: int, box_lo: float, box_w: float, coords: np.ndarray) -> np.ndarray:
    """Barycentric Lagrange basis values, shape (len(coords), q)."""
    z, w = _reference_nodes(q)
    x = np.asarray(coords, dtype=float)
    # same expression as cheb_grid, so a grid's own points hit bit-exactly;
    # the reference-frame rescale alone can be off by an ulp
    nodes = box_lo + box_w * (z + 1.0) / 2.0
    s = 2.0 * (x - box_lo) / box_w - 1.0
    diff = s[:, None] - z[None, :]
    hit = (diff == 0.0) | (x[:, None] == nodes[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = w[None, :] / diff
        basis = terms / np.sum(terms, axis=1, keepdims=True)
    rows = np.any(hit, axis=1)
    if np.any(rows):
        basis[rows] = 0.0
        basis[hit] = 1.0
    return basis


def lagrange_matrix(grid: ChebGrid, pts: np.ndarray) -> np.ndarray:
    """All tensor Lagrange basis functions at pts: (len(pts), q^d)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = pts.shape[1]
    acc = np.ones((pts.shape[0], 1))
    for k in range(d - 1, -1, -1):
        bk = _basis_1d(grid.q, grid.box.lower[k], grid.box.width[k], pts[:, k])
        acc = (acc[:, :, None] * bk[:, None, :]).reshape(pts.shape[0], -1)
    return acc


@lru_cache(maxsize=None)
def _unit_box(d: int) -> BoxRegion:
    return BoxRegion((0.0,) * d, (1.0,) * d)


@lru_cache(maxsize=None)
def _child_matrices_1d(q: int) -> np.ndarray:
    """(2, q, q) arrays m[h][t', t] = parent basis t' at node t of half h."""
    parent_grid = cheb_grid(q, _unit_box(1))
    out = np.empty((2, q, q))
    for h in range(2):
        child = cheb_grid(q, BoxRegion((h * 0.5,), (0.5,)))
        out[h] = lagrange_matrix(parent_grid, child.points).T
    return out


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


def _phase_at(phase: PhaseEvaluator, pts: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Phi(pts[i], point) for a fixed second argument."""
    rep = np.broadcast_to(point, pts.shape)
    return phase(pts, rep)


def _phase_from(phase: PhaseEvaluator, point: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Phi(point, pts[i]) for a fixed first argument."""
    rep = np.broadcast_to(point, pts.shape)
    return phase(rep, pts)


# ---------------------------------------------------------------------------
# Weight operations: each pair's weights are a plain (q^d,) complex vector
# ---------------------------------------------------------------------------


def init_source_weights(
    b: DyadicKey,
    positions: np.ndarray,
    strengths: np.ndarray,
    phase: PhaseEvaluator,
    q: int,
    ledger: Optional[CostLedger] = None,
) -> np.ndarray:
    """Column weights of the pair (X, B) from the raw sources inside B.

    The demodulation center is the center of the whole target domain, since
    at the first stage the single target box is X itself.
    """
    d = b.dim
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    strengths = np.asarray(strengths, dtype=complex)
    grid = cheb_grid(q, box_of(b))
    r = grid.rank
    if positions.shape[0] == 0:
        return np.zeros(r, dtype=complex)
    lo = np.asarray(box_of(b).lower)
    hi = lo + np.asarray(box_of(b).width)
    inside_hi = (positions < hi) | ((hi == 1.0) & (positions <= 1.0))
    if not np.all((positions >= lo) & inside_hi):
        raise ValueError("source position outside its box")
    x_root = center_of(DyadicKey(0, (0,) * d))
    mod = np.exp(1j * _phase_from(phase, x_root, positions))
    moments = lagrange_matrix(grid, positions).T @ (mod * strengths)
    demod = np.exp(-1j * _phase_from(phase, x_root, grid.points))
    n = positions.shape[0]
    if ledger is not None:
        ledger.add_flops(2 * n * r + n + r)
    return demod * moments


def _column_contribution(
    a_c: DyadicKey,
    b_p: DyadicKey,
    b_child: DyadicKey,
    values: np.ndarray,
    phase: PhaseEvaluator,
    q: int,
    ledger: Optional[CostLedger] = None,
) -> np.ndarray:
    """One child's share of the column translation into the pair (A_c, B_p).

    The child pair's weights are treated as point sources at the child grid
    nodes and re-expanded on the parent source box with the new target
    center's demodulation.
    """
    r = q**a_c.dim
    xc = center_of(a_c)
    child_grid = cheb_grid(q, box_of(b_child))
    parent_grid = cheb_grid(q, box_of(b_p))
    v = np.exp(1j * _phase_from(phase, xc, child_grid.points)) * values
    w = _child_matrices(q, a_c.dim)[child_index(b_child)] @ v
    out = np.exp(-1j * _phase_from(phase, xc, parent_grid.points)) * w
    if ledger is not None:
        ledger.add_flops(2 * r * r + 3 * r)
    return out


def _row_contribution(
    a_c: DyadicKey,
    b_p: DyadicKey,
    b_child: DyadicKey,
    values: np.ndarray,
    phase: PhaseEvaluator,
    q: int,
    ledger: Optional[CostLedger] = None,
) -> np.ndarray:
    """One child's share of the row translation into the pair (A_c, B_p).

    The child pair's weights are demodulated potential samples on the grid
    of A = parent(A_c); they are interpolated to the finer grid on A_c and
    re-centered from the child source box onto its parent.
    """
    r = q**a_c.dim
    new_grid = cheb_grid(q, box_of(a_c))
    w = _child_matrices(q, a_c.dim)[child_index(a_c)].T @ values
    ph_old = _phase_at(phase, new_grid.points, center_of(b_child))
    ph_new = _phase_at(phase, new_grid.points, center_of(b_p))
    out = np.exp(1j * (ph_old - ph_new)) * w
    if ledger is not None:
        ledger.add_flops(2 * r * r + 3 * r)
    return out


def middle_switch(
    a: DyadicKey,
    b: DyadicKey,
    values: np.ndarray,
    phase: PhaseEvaluator,
    q: int,
    ledger: Optional[CostLedger] = None,
) -> np.ndarray:
    """Column weights of the pair (A, B) to row weights, in O(r^2).

    Evaluates the column expansion (equivalent sources at the grid of B) at
    the target grid of A, then demodulates by the phase at B's center.
    """
    a_grid = cheb_grid(q, box_of(a))
    b_grid = cheb_grid(q, box_of(b))
    kmat = kernel_matrix(phase, a_grid.points, b_grid.points)
    sampled = kmat @ values
    demod = np.exp(-1j * _phase_at(phase, a_grid.points, center_of(b)))
    r = a_grid.rank
    if ledger is not None:
        ledger.add_flops(2 * r * r + 2 * r)
    return demod * sampled


def evaluate_block(
    a: DyadicKey,
    b: DyadicKey,
    values: np.ndarray,
    pts: np.ndarray,
    phase: PhaseEvaluator,
    q: int,
    check_inside: bool = False,
) -> np.ndarray:
    """Row weights of the pair (A, B) evaluated at points of A:
    f(x) = exp(i*Phi(x, y_B)) sum_t L_t(x) delta_t."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    box = box_of(a)
    if check_inside:
        lo = np.asarray(box.lower)
        hi = lo + np.asarray(box.width)
        inside_hi = (pts < hi) | ((hi == 1.0) & (pts <= 1.0))
        if not np.all((pts >= lo) & inside_hi):
            raise ValueError("evaluation point outside the pair's target box")
    grid = cheb_grid(q, box)
    vals = lagrange_matrix(grid, pts) @ values
    return np.exp(1j * _phase_at(phase, pts, center_of(b))) * vals
