"""Interpolative decompositions and skeleton-merging translation operators.

An interpolative decomposition (ID) of a matrix M picks r actual columns
K_hat = M[:, J] and an interpolation matrix Z with M ~= K_hat @ Z, where Z
restricted to the selected columns is exactly the identity. Built on a
column-pivoted QR: with M * Pi = Q [R_L R_R], truncated at the first
diagonal entry satisfying |R[r, r]| <= tol * |R[0, 0]|,

    Z = [I | pinv(R_L) @ R_R] * Pi^H.

Applied to a kernel block K(targets in A, sources in B), the selected
columns are actual source points, and g_hat = Z @ g turns the box's sources
into r equivalent point sources at those locations with the guarantee
|K g - K_hat g_hat| <= eps * s(r, n) * ||g||_1 entrywise.

Merging: when 2^d sibling source boxes combine, the stacked matrix of their
skeleton columns, restricted to the rows of the smaller target box, is
recompressed by a fresh ID. The resulting interpolation matrix is the
translation operator mapping stacked child equivalent sources to the
parent's, and the new skeleton is again a set of actual source points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg


@dataclass
class InterpolativeDecomposition:
    """Column skeleton and interpolation matrix of one kernel block."""

    column_indices: np.ndarray  # (r,) indices into the original columns
    interp_matrix: np.ndarray  # (r, n) with identity at column_indices
    n_cols: int
    points: Optional[np.ndarray] = field(default=None)  # (r, d) skeleton points

    @property
    def rank(self) -> int:
        return int(self.column_indices.shape[0])


@dataclass
class TranslationOperatorID:
    """Weight map from stacked child equivalent sources to a parent's."""

    matrix: np.ndarray  # (r_new, sum of child ranks)
    child_slices: tuple[slice, ...]
    column_indices: np.ndarray  # into the stacked child skeleton
    points: np.ndarray  # (r_new, d) selected source points


def _truncation_rank(diag: np.ndarray, tol: float) -> int:
    """First r with |R[r, r]| <= tol * |R[0, 0]|, or the full length."""
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    below = np.nonzero(diag <= tol * diag[0])[0]
    return int(below[0]) if below.size else int(diag.size)


def _solve_clamped(r_left: np.ndarray, r_right: np.ndarray) -> np.ndarray:
    """pinv(R_L) @ R_R via a triangular solve with tiny diagonals clamped
    to eps * |R[0, 0]|, which keeps near-rank-deficient blocks finite."""
    if r_left.shape[0] == 0 or r_right.shape[1] == 0:
        return np.zeros((r_left.shape[0], r_right.shape[1]), dtype=complex)
    clamped = np.array(r_left, dtype=complex)
    floor = np.finfo(float).eps * np.abs(clamped[0, 0])
    d = np.diag(clamped).copy()
    small = np.abs(d) < floor
    if np.any(small):
        scale = np.where(np.abs(d[small]) == 0.0, 1.0, d[small] / np.abs(d[small]))
        d[small] = scale * floor
        np.fill_diagonal(clamped, d)
    return scipy.linalg.solve_triangular(clamped, r_right, lower=False)


def build_id(M: np.ndarray, tol: float) -> InterpolativeDecomposition:
    """Interpolative decomposition M ~= M[:, J] @ Z with exact identity at J.

    Factoring fully and then truncating matches stopping the pivoted
    elimination early, because pivot choices never look ahead.
    """
    M = np.asarray(M, dtype=complex)
    m, n = M.shape
    if m == 0 or n == 0:
        return InterpolativeDecomposition(np.arange(0), np.zeros((0, n), dtype=complex), n)
    _, R, perm = scipy.linalg.qr(M, mode="economic", pivoting=True)
    r = _truncation_rank(np.abs(np.diag(R)), tol)
    T = _solve_clamped(R[:r, :r], R[:r, r:])
    Z = np.zeros((r, n), dtype=complex)
    Z[np.arange(r), perm[:r]] = 1.0
    Z[:, perm[r:]] = T
    return InterpolativeDecomposition(perm[:r].copy(), Z, n)


KernelSampler = Callable[[np.ndarray, np.ndarray], np.ndarray]


def build_translation_id(
    child_ids: Sequence[InterpolativeDecomposition],
    target_points: np.ndarray,
    kernel_sampler: KernelSampler,
    tol: float,
) -> TranslationOperatorID:
    """Recompress stacked child skeletons against a finer target box's rows.

    child_ids must carry their skeleton points. target_points are all the
    target samples of the output pair's target box (no proxy rows). The
    returned matrix maps the concatenation of child equivalent sources to
    the parent pair's, one slice per child.
    """
    d = None
    pts = []
    slices = []
    start = 0
    for cid in child_ids:
        if cid.points is None:
            raise ValueError("child decomposition lacks skeleton points")
        pts.append(np.atleast_2d(cid.points))
        if cid.rank:
            d = pts[-1].shape[1]
        slices.append(slice(start, start + cid.rank))
        start += cid.rank
    total = start
    if total == 0:
        dd = d if d is not None else np.atleast_2d(target_points).shape[1]
        return TranslationOperatorID(
            np.zeros((0, 0), dtype=complex), tuple(slices), np.arange(0), np.zeros((0, dd))
        )
    stacked = np.vstack([p for p in pts if p.shape[0]])
    M = kernel_sampler(np.atleast_2d(target_points), stacked)
    decomp = build_id(M, tol)
    return TranslationOperatorID(
        decomp.interp_matrix,
        tuple(slices),
        decomp.column_indices,
        stacked[decomp.column_indices],
    )
