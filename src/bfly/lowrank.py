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

Only R and the column pivots of the QR are needed, so Q is never formed:
LAPACK's zgeqp3 factors a Fortran-ordered block, in place when the caller
hands over a block it does not read again (kernel_matrix(..., order="F")
makes one without a copy). There is no finiteness scan of the block: the
samples are checked where they are made (PhaseEvaluator), and a NaN or inf
that reaches the factorization anyway still shows in R's diagonal or in
the solved interpolation coefficients, which are checked.

scipy is loaded on the first factorization (_linalg), not at import: it
adds about 28 MB of resident memory, which the cheb backend never uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np


@lru_cache(maxsize=None)
def _linalg():
    """LAPACK's complex zgeqp3 and scipy's solve_triangular, imported on
    first use."""
    import scipy.linalg

    return scipy.linalg.get_lapack_funcs("geqp3", dtype=complex), scipy.linalg.solve_triangular


@dataclass
class InterpolativeDecomposition:
    """Column skeleton and interpolation matrix of one kernel block."""

    column_indices: np.ndarray  # (r,) indices into the original columns
    matrix: np.ndarray  # (r, n) with identity at column_indices
    points: Optional[np.ndarray] = None  # (r, d) skeleton points

    @property
    def rank(self) -> int:
        return int(self.column_indices.shape[0])


def _truncation_rank(diag: np.ndarray, tol: float) -> int:
    """First r with |R[r, r]| <= tol * |R[0, 0]|, or the full length."""
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    below = np.nonzero(diag <= tol * diag[0])[0]
    return int(below[0]) if below.size else int(diag.size)


def _solve_clamped(r_left: np.ndarray, r_right: np.ndarray) -> np.ndarray:
    """pinv(R_L) @ R_R via a triangular solve with tiny diagonals clamped
    to eps * |R[0, 0]|, which keeps near-rank-deficient blocks finite.
    Only the upper triangle of r_left is read."""
    if r_left.shape[0] == 0 or r_right.shape[1] == 0:
        return np.zeros((r_left.shape[0], r_right.shape[1]), dtype=complex)
    # C order: solve_triangular then solves the transposed system, the
    # LAPACK path whose bits the IDs have always had
    clamped = np.array(r_left, dtype=complex, order="C")
    floor = np.finfo(float).eps * np.abs(clamped[0, 0])
    d = np.diag(clamped).copy()
    small = np.abs(d) < floor
    if np.any(small):
        scale = np.where(np.abs(d[small]) == 0.0, 1.0, d[small] / np.abs(d[small]))
        d[small] = scale * floor
        np.fill_diagonal(clamped, d)
    solve_triangular = _linalg()[1]
    return solve_triangular(clamped, r_right, lower=False, check_finite=False)


def _pivoted_r(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-pivoted QR of the Fortran-ordered complex block a, which is
    overwritten: R in the upper triangle of the returned array (Householder
    vectors below it) and the 0-based pivots. With the optimal workspace,
    as scipy.linalg.qr queries it, so R and the pivots are its bits."""
    geqp3 = _linalg()[0]
    lwork = int(geqp3(a, lwork=-1, overwrite_a=1)[3][0].real)
    qr, jpvt, _, _, info = geqp3(a, lwork=lwork, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of zgeqp3")
    return qr, jpvt - 1


def build_id(M: np.ndarray, tol: float, overwrite: bool = False) -> InterpolativeDecomposition:
    """Interpolative decomposition M ~= M[:, J] @ Z with exact identity at J.

    Factoring fully and then truncating matches stopping the pivoted
    elimination early, because pivot choices never look ahead. M is left
    unmodified unless overwrite is set, which lets LAPACK factor a
    Fortran-ordered complex M in place: only for a block that is not read
    again.
    """
    M = np.asarray(M)
    m, n = M.shape
    if m == 0 or n == 0:
        return InterpolativeDecomposition(np.arange(0), np.zeros((0, n), dtype=complex))
    if overwrite and M.dtype == complex and M.flags.f_contiguous and M.flags.writeable:
        qr, perm = _pivoted_r(M)
    else:
        qr, perm = _pivoted_r(np.array(M, dtype=complex, order="F"))
    diag = np.abs(qr.diagonal())
    r = _truncation_rank(diag, tol)
    T = _solve_clamped(qr[:r, :r], qr[:r, r:])
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(T))):
        raise ValueError("build_id: the block contains a NaN or inf")
    Z = np.zeros((r, n), dtype=complex)
    Z[np.arange(r), perm[:r]] = 1.0
    Z[:, perm[r:]] = T
    return InterpolativeDecomposition(perm[:r], Z)


KernelSampler = Callable[[np.ndarray, np.ndarray], np.ndarray]


def build_translation_id(
    child_points: Sequence[np.ndarray],
    target_points: np.ndarray,
    kernel_sampler: KernelSampler,
    tol: float,
) -> InterpolativeDecomposition:
    """Recompress stacked child skeletons against a finer target box's rows.

    child_points are the children's skeleton points (r_n, d), in child
    order. target_points are all the target samples of the output pair's
    target box (no proxy rows). The returned matrix maps the concatenation
    of the child equivalent sources to the parent pair's, whose skeleton
    points are again child skeleton points. The sampled block is factored
    in place, so kernel_sampler must return a new array on every call.
    """
    stacked = np.concatenate(child_points)
    if stacked.shape[0] == 0:
        return InterpolativeDecomposition(np.arange(0), np.zeros((0, 0), dtype=complex), stacked)
    decomp = build_id(kernel_sampler(target_points, stacked), tol, overwrite=True)
    decomp.points = stacked[decomp.column_indices]
    return decomp
