"""Interpolative decompositions (truncated pivoted QR) and skeleton
translations, verified against dense SVD and direct-multiplication oracles."""

from __future__ import annotations

import numpy as np

from bfly.lowrank import InterpolativeDecomposition, build_id, build_translation_id


def random_with_spectrum(rng, m, n, sigmas):
    """Complex matrix with prescribed singular values (SVD synthesis)."""
    k = len(sigmas)
    a = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
    b = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    U, _ = np.linalg.qr(a)
    V, _ = np.linalg.qr(b)
    return (U * np.asarray(sigmas)) @ V.conj().T


def reconstruct(M, decomp):
    return M[:, decomp.column_indices] @ decomp.interp_matrix


def test_qr_identity():
    decomp = build_id(np.eye(3, dtype=complex), 1e-12)
    assert decomp.rank == 3
    assert sorted(decomp.column_indices.tolist()) == [0, 1, 2]
    assert np.array_equal(decomp.interp_matrix[:, decomp.column_indices], np.eye(3))
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
    assert decomp.interp_matrix.shape == (0, 3)


def test_build_id_proportional_columns():
    c = np.array([1.0, 2.0, -1.0])
    M = np.stack([c, 2 * c], axis=1)
    decomp = build_id(M, 1e-10)
    assert decomp.rank == 1
    assert decomp.column_indices.tolist() == [1]
    assert np.allclose(decomp.interp_matrix, [[0.5, 1.0]])


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
    sub = decomp.interp_matrix[:, decomp.column_indices]
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
    ghat = decomp.interp_matrix @ np.array([2.0, 2.0])
    assert np.allclose(ghat, [3.0])
    assert np.allclose(M[:, decomp.column_indices] @ ghat, M @ np.array([2.0, 2.0]))


def test_equivalent_sources_identity_restriction():
    rng = np.random.default_rng(23)
    M = random_with_spectrum(rng, 10, 8, np.logspace(0, -10, 8))
    decomp = build_id(M, 1e-6)
    g = np.zeros(8, dtype=complex)
    vals = rng.normal(size=decomp.rank) + 1j * rng.normal(size=decomp.rank)
    g[decomp.column_indices] = vals
    assert np.allclose(decomp.interp_matrix @ g, vals, atol=1e-12)


def test_equivalent_sources_residual_bound():
    rng = np.random.default_rng(29)
    tol = 1e-7
    M = random_with_spectrum(rng, 14, 12, np.logspace(0, -11, 12))
    decomp = build_id(M, tol)
    g = rng.normal(size=12) + 1j * rng.normal(size=12)
    direct = M @ g
    skel = M[:, decomp.column_indices] @ (decomp.interp_matrix @ g)
    # s(r, n) absorbed into a generous constant
    assert np.max(np.abs(direct - skel)) <= 100 * tol * np.sum(np.abs(g))


def _separable_sampler(xs, ys):
    # rank-1 kernel a(x) * b(y)
    return np.outer(np.exp(xs[:, 0]), 2.0 + np.sin(3.0 * ys[:, 0]))


def test_translation_separable_kernel_exact():
    rng = np.random.default_rng(31)
    targets = rng.uniform(0.0, 0.5, size=(9, 1))
    child_pts = [rng.uniform(0.0, 0.5, size=(5, 1)), rng.uniform(0.5, 1.0, size=(5, 1))]
    child_ids = []
    gs = []
    for pts in child_pts:
        M = _separable_sampler(targets, pts)
        dec = build_id(M, 1e-12)
        dec.points = pts[dec.column_indices]
        child_ids.append(dec)
        gs.append(rng.normal(size=5) + 1j * rng.normal(size=5))
    op = build_translation_id(child_ids, targets, _separable_sampler, 1e-12)
    assert op.matrix.shape[1] == sum(c.rank for c in child_ids)
    stacked = np.concatenate([c.interp_matrix @ g for c, g in zip(child_ids, gs)])
    merged = op.matrix @ stacked
    f_approx = _separable_sampler(targets, op.points) @ merged
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

    child_ids = []
    for lo in (0.0, 0.5):
        pts = rng.uniform(lo, lo + 0.5, size=(4, 1))
        dec = build_id(sampler(targets, pts), 1e-10)
        dec.points = pts[dec.column_indices]
        child_ids.append(dec)
    op = build_translation_id(child_ids, targets, sampler, 1e-10)
    total = sum(c.rank for c in child_ids)
    assert [s.start for s in op.child_slices] == [0, child_ids[0].rank]
    assert op.child_slices[-1].stop == total
    assert np.allclose(op.matrix @ np.zeros(total), 0.0)
    # selected points are actual child skeleton points
    stacked = np.vstack([c.points for c in child_ids])
    assert np.array_equal(op.points, stacked[op.column_indices])


def test_translation_empty_children():
    empty = InterpolativeDecomposition(
        np.arange(0), np.zeros((0, 0), dtype=complex), 0, points=np.zeros((0, 1))
    )
    op = build_translation_id([empty, empty], np.zeros((4, 1)), _separable_sampler, 1e-8)
    assert op.matrix.shape == (0, 0)
    assert len(op.child_slices) == 2
