"""Interpolative decompositions (truncated pivoted QR), alone and as the
recompression of stacked child skeletons, verified against dense SVD and
direct-multiplication oracles."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from bfly.lowrank import _pivoted_r, _solve_clamped, _truncation_rank, build_id


def random_with_spectrum(rng, m, n, sigmas):
    """Complex matrix with prescribed singular values (SVD synthesis)."""
    k = len(sigmas)
    a = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
    b = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    U, _ = np.linalg.qr(a)
    V, _ = np.linalg.qr(b)
    return (U * np.asarray(sigmas)) @ V.conj().T


def reconstruct(M, decomp):
    return M[:, decomp.column_indices] @ decomp.matrix


def test_qr_identity():
    decomp = build_id(np.eye(3, dtype=complex), 1e-12)
    assert decomp.rank == 3
    assert sorted(decomp.column_indices.tolist()) == [0, 1, 2]
    assert np.array_equal(decomp.matrix[:, decomp.column_indices], np.eye(3))
    assert np.array_equal(reconstruct(np.eye(3), decomp), np.eye(3))


def test_qr_rank_one_pivot():
    # the first pivot is the column of largest norm
    rng = np.random.default_rng(5)
    u = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    M = np.outer(u, v.conj())
    decomp = build_id(M, 1e-10)
    assert decomp.rank == 1
    assert decomp.column_indices[0] == int(np.argmax(np.abs(v)))
    sv = np.linalg.svd(M, compute_uv=False)
    assert np.linalg.norm(M - reconstruct(M, decomp), 2) <= 10 * sv[1] + 1e-14


def test_qr_sigma_ladder():
    # third singular value sits below tol relative to the first, so the
    # truncation stops at rank 2
    rng = np.random.default_rng(11)
    sigmas = [1.0, 1e-2, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12]
    M = random_with_spectrum(rng, 8, 8, sigmas)
    decomp = build_id(M, 1e-6)
    assert decomp.rank == 2
    assert np.linalg.norm(M - reconstruct(M, decomp), 2) <= 10 * sigmas[2]


def test_qr_zero_matrix():
    decomp = build_id(np.zeros((4, 3), dtype=complex), 1e-8)
    assert decomp.rank == 0
    assert decomp.matrix.shape == (0, 3)


def test_build_id_proportional_columns():
    c = np.array([1.0, 2.0, -1.0])
    M = np.stack([c, 2 * c], axis=1)
    decomp = build_id(M, 1e-10)
    assert decomp.rank == 1
    assert decomp.column_indices.tolist() == [1]
    assert np.allclose(decomp.matrix, [[0.5, 1.0]])


def test_build_id_loose_tol_gives_rank_zero():
    M = np.full((3, 3), 1e-3, dtype=complex)
    decomp = build_id(M, 0.999999)
    # |R[0,0]| <= tol*|R[0,0]| fails only for tol < 1; here every later
    # pivot is tiny, so r stays 1
    assert decomp.rank <= 1
    zero = build_id(np.zeros((3, 3)), 1e-6)
    assert zero.rank == 0
    assert np.allclose(reconstruct(np.zeros((3, 3)), zero), 0.0)


def test_build_id_reconstruction_vs_svd_oracle():
    rng = np.random.default_rng(13)
    for trial in range(6):
        n = int(rng.integers(8, 17))
        k = int(rng.integers(2, 6))
        sigmas = np.concatenate([np.logspace(0, -3, k), np.full(n - k, 1e-12)])
        M = random_with_spectrum(rng, n, n, sigmas)
        decomp = build_id(M, 1e-8)
        sv = np.linalg.svd(M, compute_uv=False)
        sigma_r = sv[decomp.rank] if decomp.rank < n else 0.0
        err = np.max(np.abs(M - reconstruct(M, decomp)))
        assert err <= 100 * sigma_r + 1e-13


def test_identity_subblock_exact():
    rng = np.random.default_rng(17)
    M = random_with_spectrum(rng, 12, 10, np.logspace(0, -9, 10))
    decomp = build_id(M, 1e-5)
    sub = decomp.matrix[:, decomp.column_indices]
    assert np.array_equal(sub, np.eye(decomp.rank, dtype=complex))


def test_rank_monotone_in_tol():
    rng = np.random.default_rng(19)
    M = random_with_spectrum(rng, 16, 16, np.logspace(0, -12, 16))
    ranks = [build_id(M, tol).rank for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)]
    assert all(ranks[i] <= ranks[i + 1] for i in range(len(ranks) - 1))


def test_equivalent_sources_arithmetic():
    # g_hat = Z @ g folds the dropped column into the kept one
    c = np.array([1.0, 2.0, -1.0])
    M = np.stack([c, 2 * c], axis=1)
    decomp = build_id(M, 1e-10)
    ghat = decomp.matrix @ np.array([2.0, 2.0])
    assert np.allclose(ghat, [3.0])
    assert np.allclose(M[:, decomp.column_indices] @ ghat, M @ np.array([2.0, 2.0]))


def test_equivalent_sources_identity_restriction():
    rng = np.random.default_rng(23)
    M = random_with_spectrum(rng, 10, 8, np.logspace(0, -10, 8))
    decomp = build_id(M, 1e-6)
    g = np.zeros(8, dtype=complex)
    vals = rng.normal(size=decomp.rank) + 1j * rng.normal(size=decomp.rank)
    g[decomp.column_indices] = vals
    assert np.allclose(decomp.matrix @ g, vals, atol=1e-12)


def test_equivalent_sources_residual_bound():
    rng = np.random.default_rng(29)
    tol = 1e-7
    M = random_with_spectrum(rng, 14, 12, np.logspace(0, -11, 12))
    decomp = build_id(M, tol)
    g = rng.normal(size=12) + 1j * rng.normal(size=12)
    direct = M @ g
    skel = M[:, decomp.column_indices] @ (decomp.matrix @ g)
    # s(r, n) absorbed into a generous constant
    assert np.max(np.abs(direct - skel)) <= 100 * tol * np.sum(np.abs(g))


def economic_id(M, tol):
    """build_id as it was on scipy.linalg.qr(mode="economic", pivoting=True),
    which also forms Q: the oracle for build_id's bits."""
    M = np.asarray(M, dtype=complex)
    m, n = M.shape
    if m == 0 or n == 0:
        return np.arange(0), np.zeros((0, n), dtype=complex)
    _, R, perm = scipy.linalg.qr(M, mode="economic", pivoting=True)
    r = _truncation_rank(np.abs(np.diag(R)), tol)
    T = _solve_clamped(R[:r, :r], R[:r, r:])
    Z = np.zeros((r, n), dtype=complex)
    Z[np.arange(r), perm[:r]] = 1.0
    Z[:, perm[r:]] = T
    return perm[:r], Z


def _shapes_to_factor():
    """Tall, wide, rank-deficient, zero and single-column blocks, plus a
    sampled kernel block and a real one."""
    rng = np.random.default_rng(41)

    def cplx(m, n):
        return rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))

    x = rng.uniform(size=(64, 1))
    y = rng.uniform(size=(24, 1))
    return {
        "tall": cplx(40, 7),
        "wide": cplx(5, 12),
        "rank-deficient": cplx(20, 3) @ cplx(3, 10),
        "zero": np.zeros((6, 4), dtype=complex),
        "single-column": cplx(9, 1),
        "single-row": cplx(1, 6),
        "kernel": np.exp(2j * np.pi * 16 * x @ y.T),
        "real": rng.normal(size=(8, 5)),
    }


@pytest.mark.parametrize("name", sorted(_shapes_to_factor()))
def test_pivoted_r_matches_economic_qr_bits(name):
    M = np.asarray(_shapes_to_factor()[name], dtype=complex)
    _, R, perm = scipy.linalg.qr(M, mode="economic", pivoting=True)
    qr, got = _pivoted_r(np.array(M, order="F"))
    assert np.array_equal(got, perm) and got.dtype == perm.dtype
    assert np.array_equal(np.triu(qr[: R.shape[0]]), R)


@pytest.mark.parametrize("name", sorted(_shapes_to_factor()))
@pytest.mark.parametrize("tol", [1e-12, 1e-6, 0.5])
def test_build_id_matches_economic_oracle_bits(name, tol):
    M = _shapes_to_factor()[name]
    cols, Z = economic_id(M, tol)
    for block, overwrite in ((M, False), (np.array(M, dtype=complex, order="F"), True)):
        dec = build_id(block, tol, overwrite=overwrite)
        assert np.array_equal(dec.column_indices, cols)
        assert np.array_equal(dec.matrix, Z)


def test_solve_clamped_matches_solve_triangular_bits():
    # _solve_clamped calls LAPACK's trtrs with the arguments scipy's
    # solve_triangular passes for a C-ordered upper triangle; a 1 x 1 one,
    # which scipy solves untransposed, gets the same bits too
    rng = np.random.default_rng(47)
    for n in (1, 2, 3, 8, 25):
        for k in (1, 4, 40):
            scale = 10.0 ** rng.integers(-6, 7, size=(n + 3, 1))
            R = np.asfortranarray(scale * (rng.normal(size=(n + 3, n + k)) + 1j * rng.normal(size=(n + 3, n + k))))
            left, right = R[:n, :n], R[:n, n:]
            for _ in range(20 if n == 1 else 1):
                want = scipy.linalg.solve_triangular(np.array(left, order="C"), right, check_finite=False)
                assert np.array_equal(_solve_clamped(left, right), want), (n, k)
                left = left * (rng.normal() + 1j * rng.normal())


@pytest.mark.parametrize("name", sorted(_shapes_to_factor()))
@pytest.mark.parametrize("order", ["C", "F"])
def test_build_id_leaves_its_input_unmodified(name, order):
    # A single column is both C- and F-contiguous, so np.asfortranarray
    # would hand LAPACK the caller's own array.
    M = np.array(_shapes_to_factor()[name], dtype=complex, order=order)
    before = M.copy()
    build_id(M, 1e-8)
    assert np.array_equal(M, before)


@pytest.mark.parametrize("shape", [(12, 5), (4, 9), (7, 1)])
@pytest.mark.parametrize("where", [(0, 0), (-1, -1), (2, 0)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_id_rejects_non_finite_blocks(shape, where, bad):
    rng = np.random.default_rng(43)
    M = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    M[where[0] % shape[0], where[1] % shape[1]] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        build_id(M, 1e-8)


def _separable_sampler(xs, ys):
    # rank-1 kernel a(x) * b(y)
    return np.outer(np.exp(xs[:, 0]), 2.0 + np.sin(3.0 * ys[:, 0]))


def _translation_id(child_points, targets, sampler, tol):
    """A merge's recompression as the id precompute makes it, one build_id
    on the block of the stacked child skeleton points; returns the ID and
    the stacked points."""
    stacked = np.concatenate(child_points)
    return build_id(sampler(targets, stacked), tol), stacked


def test_translation_separable_kernel_exact():
    rng = np.random.default_rng(31)
    targets = rng.uniform(0.0, 0.5, size=(9, 1))
    child_pts = [rng.uniform(0.0, 0.5, size=(5, 1)), rng.uniform(0.5, 1.0, size=(5, 1))]
    child_ids = []
    gs = []
    for pts in child_pts:
        dec = build_id(_separable_sampler(targets, pts), 1e-12)
        child_ids.append((dec, pts[dec.column_indices]))
        gs.append(rng.normal(size=5) + 1j * rng.normal(size=5))
    op, stacked_pts = _translation_id([p for _, p in child_ids], targets, _separable_sampler, 1e-12)
    assert op.matrix.shape[1] == sum(c.rank for c, _ in child_ids)
    stacked = np.concatenate([c.matrix @ g for (c, _), g in zip(child_ids, gs)])
    merged = op.matrix @ stacked
    f_approx = _separable_sampler(targets, stacked_pts[op.column_indices]) @ merged
    f_exact = sum(
        _separable_sampler(targets, pts) @ g for pts, g in zip(child_pts, gs)
    )
    rel = np.max(np.abs(f_approx - f_exact)) / np.max(np.abs(f_exact))
    assert rel <= 1e-12


def test_translation_zero_weights_and_slices():
    rng = np.random.default_rng(37)
    targets = rng.uniform(size=(8, 1))

    def sampler(xs, ys):
        return np.exp(1j * np.outer(xs[:, 0], ys[:, 0]))

    child_points = []
    for lo in (0.0, 0.5):
        pts = rng.uniform(lo, lo + 0.5, size=(4, 1))
        dec = build_id(sampler(targets, pts), 1e-10)
        child_points.append(pts[dec.column_indices])
    op, stacked = _translation_id(child_points, targets, sampler, 1e-10)
    # one column per stacked child skeleton point, the children in order
    assert op.matrix.shape == (op.rank, len(stacked))
    assert np.allclose(op.matrix @ np.zeros(len(stacked)), 0.0)
    assert np.all(op.column_indices < len(stacked))


def test_translation_empty_children():
    empty = np.zeros((0, 1))
    op, stacked = _translation_id([empty, empty], np.zeros((4, 1)), _separable_sampler, 1e-8)
    assert stacked.shape == (0, 1)
    assert op.rank == 0
    assert op.matrix.shape == (0, 0)


SCIPY_ON_FIRST_ID_USE = """
import sys
import numpy as np
import bfly
from bfly import SourceSet, butterfly_apply, get_phase
s = SourceSet(np.linspace(0.0, 1.0, 40)[:, None], np.ones(40))
butterfly_apply(s, get_phase("fourier"), 8, q=4)
print("scipy" in sys.modules, "concurrent.futures" in sys.modules)
butterfly_apply(s, get_phase("fourier"), 8, backend="id")
print("scipy" in sys.modules, "concurrent.futures" in sys.modules)
"""


def test_scipy_loads_on_the_first_id_solve():
    # scipy adds about 28 MB of resident memory that the cheb backend never
    # uses, so neither importing bfly nor a cheb solve loads it; nor the
    # id precompute's thread pool
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", SCIPY_ON_FIRST_ID_USE]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False", "True", "True"]
