"""Interpolative decompositions of kernel blocks.

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
recompressed by a fresh ID: the caller stacks the child skeleton points,
samples the block and takes the new skeleton, again actual source points,
from the stack at the ID's columns. The interpolation matrix maps stacked
child equivalent sources to the parent's (the translation operator).

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

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


# the id precompute factors on several threads at once: one of them imports
# scipy, and the others wait rather than meet a partly initialized module
# (which concurrent circular imports can hand out)
_LOADING = threading.Lock()


@lru_cache(maxsize=None)
def _linalg():
    """LAPACK's complex zgeqp3 and ztrtrs, imported on first use."""
    with _LOADING:
        import scipy.linalg

    return scipy.linalg.get_lapack_funcs(("geqp3", "trtrs"), dtype=complex)


@dataclass
class InterpolativeDecomposition:
    """Column skeleton and interpolation matrix of one kernel block."""

    column_indices: np.ndarray  # (r,) indices into the original columns
    matrix: np.ndarray  # (r, n) with identity at column_indices

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
    # C order: its transpose is a Fortran-ordered lower triangle, and the
    # transposed system is the one scipy's solve_triangular solves for it,
    # whose bits the IDs have always had (for 1 x 1, which is also Fortran-
    # ordered, scipy solves the system untransposed: the same bits)
    clamped = np.array(r_left, dtype=complex, order="C")
    floor = np.finfo(float).eps * np.abs(clamped[0, 0])
    d = np.diag(clamped).copy()
    small = np.abs(d) < floor
    if np.any(small):
        scale = np.where(np.abs(d[small]) == 0.0, 1.0, d[small] / np.abs(d[small]))
        d[small] = scale * floor
        np.fill_diagonal(clamped, d)
    trtrs = _linalg()[1]
    x, info = trtrs(clamped.T, r_right, lower=1, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of ztrtrs")
    return x


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
