"""Chebyshev grids, Lagrange interpolation, and the weight operations
(initialization, per-child translations, middle switch, evaluation),
checked against direct kernel summation."""

from __future__ import annotations

import numpy as np
import pytest

from bfly.chebyshev import (
    ChebGrid,
    _child_matrices,
    _child_matrices_1d,
    _column_contribution,
    _row_contribution,
    cheb_grid,
    evaluate_block,
    init_source_weights,
    lagrange_matrix,
    middle_switch,
)
from bfly.costs import CostLedger, CostParams
from bfly.geometry import BoxRegion, DyadicKey, box_of, center_of, children
from bfly.phases import PhaseEvaluator, get_phase, kernel_matrix

FLAT = PhaseEvaluator("flat", None, lambda x, y: np.zeros(x.shape[0]))
UNIT1 = BoxRegion((0.0,), (1.0,))


def ledger():
    return CostLedger(CostParams())


def column_potential(b, values, pts, phase, q):
    """Column weights of a pair with source box b as equivalent point sources
    at b's grid: f(x) = sum_t K(x, b_t) delta_t."""
    return kernel_matrix(phase, pts, cheb_grid(q, box_of(b)).points) @ values


def translate(contribution, a_c, b_p, child_values, phase, q, led=None):
    """Weights of (A_c, B_p) as the engine builds them: the sum of one
    contribution per child pair (parent(A_c), B_n), in child order."""
    out = np.zeros(q**a_c.dim, dtype=complex)
    for b_n, v in zip(children(b_p), child_values):
        out += contribution(a_c, b_p, b_n, v, phase, q, led)
    return out


def lagrange_eval(grid: ChebGrid, t: int, y) -> float:
    """L_t(y) from the product formula, one factor per dimension."""
    q = grid.q
    out = 1.0
    for k, yk in enumerate(y):
        nodes = np.asarray(grid.nodes1d[k])
        i = (t // q**k) % q
        others = np.delete(nodes, i)
        out *= float(np.prod((yk - others) / (nodes[i] - others)))
    return out


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_single_node_is_center():
    g = cheb_grid(1, UNIT1)
    assert np.allclose(g.points, [[0.5]])


def test_two_node_positions():
    g = cheb_grid(2, UNIT1)
    lo = 0.5 * (1.0 - np.cos(np.pi / 4))
    assert np.allclose(g.points[:, 0], [lo, 1.0 - lo])
    assert np.allclose(g.points[:, 0], [0.14644660940672627, 0.8535533905932737])


def test_nodes_ascending_and_interior():
    for q in (2, 3, 5, 8):
        g = cheb_grid(q, UNIT1)
        x = g.points[:, 0]
        assert np.all(np.diff(x) > 0)
        assert np.all((x > 0) & (x < 1))


def test_tensor_flattening_dim0_fastest():
    g = cheb_grid(2, BoxRegion((0.0, 0.0), (1.0, 1.0)))
    a, b = cheb_grid(2, UNIT1).points[:, 0]
    expect = np.array([[a, a], [b, a], [a, b], [b, b]])
    assert np.allclose(g.points, expect)
    assert g.rank == 4


def test_grid_scales_affinely():
    box = BoxRegion((0.25,), (0.25,))
    g = cheb_grid(3, box)
    ref = cheb_grid(3, UNIT1)
    assert np.allclose(g.points[:, 0], 0.25 + 0.25 * ref.points[:, 0])


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def test_lagrange_cardinality_exact():
    g = cheb_grid(5, UNIT1)
    assert np.array_equal(lagrange_matrix(g, g.points), np.eye(5))
    g2 = cheb_grid(3, BoxRegion((0.0, 0.5), (0.5, 0.5)))
    assert np.array_equal(lagrange_matrix(g2, g2.points), np.eye(9))


def test_lagrange_partition_of_unity():
    rng = np.random.default_rng(3)
    g = cheb_grid(6, BoxRegion((0.25, 0.0), (0.25, 0.5)))
    pts = np.stack(
        [rng.uniform(0.25, 0.5, 40), rng.uniform(0.0, 0.5, 40)], axis=1
    )
    sums = lagrange_matrix(g, pts).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)


def test_q1_basis_is_constant_one():
    g = cheb_grid(1, UNIT1)
    pts = np.linspace(0.0, 1.0, 7)[:, None]
    assert np.allclose(lagrange_matrix(g, pts), 1.0)


def test_polynomial_reproduction():
    rng = np.random.default_rng(9)
    g = cheb_grid(5, UNIT1)

    def p(y):
        return 3 * y**4 - 2 * y**3 + y - 0.5

    coeffs = p(g.points[:, 0])
    pts = rng.uniform(size=(50, 1))
    interp = lagrange_matrix(g, pts) @ coeffs
    assert np.allclose(interp, p(pts[:, 0]), atol=1e-12)


def test_lagrange_eval_matches_matrix():
    # the barycentric form agrees with the textbook product formula
    for g, y in ((cheb_grid(4, UNIT1), [0.3]), (cheb_grid(3, BoxRegion((0.0, 0.5), (0.5, 0.5))), [0.1, 0.7])):
        row = lagrange_matrix(g, np.array([y]))
        for t in range(g.rank):
            assert lagrange_eval(g, t, y) == pytest.approx(row[0, t], abs=1e-14)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_empty_box_gives_zero_block():
    w = init_source_weights(
        DyadicKey(2, (3,)), np.zeros((0, 1)), np.zeros(0, dtype=complex), FLAT, 4
    )
    assert np.array_equal(w, np.zeros(4, dtype=complex))


def test_init_node_source_flat_phase_one_hot():
    b = DyadicKey(2, (1,))
    grid = cheb_grid(4, box_of(b))
    g = 2.0 - 1.0j
    w = init_source_weights(b, grid.points[[2]], np.array([g]), FLAT, 4)
    expect = np.zeros(4, dtype=complex)
    expect[2] = g
    assert np.array_equal(w, expect)


def test_init_column_weights_reproduce_direct_sum():
    # pair (whole domain, one fine box): width product is small enough that
    # the rank-q expansion is essentially exact
    rng = np.random.default_rng(21)
    phase = get_phase("fourier")
    b = DyadicKey(4, (5,))
    lo = 5.0 / 16.0
    pos = rng.uniform(lo, lo + 1.0 / 16.0, size=(8, 1))
    g = rng.normal(size=8) + 1j * rng.normal(size=8)
    w = init_source_weights(b, pos, g, phase, 8)
    x = rng.uniform(size=(30, 1))
    direct = kernel_matrix(phase, x, pos) @ g
    approx = column_potential(b, w, x, phase, 8)
    rel = np.max(np.abs(approx - direct)) / np.max(np.abs(direct))
    assert rel <= 1e-6


def test_init_rejects_outside_sources():
    with pytest.raises(ValueError):
        init_source_weights(
            DyadicKey(2, (0,)), np.array([[0.9]]), np.ones(1, dtype=complex), FLAT, 4
        )


def test_init_flop_count():
    led = ledger()
    b = DyadicKey(1, (0,))
    pos = np.array([[0.1], [0.2], [0.3]])
    init_source_weights(b, pos, np.ones(3, dtype=complex), FLAT, 4, led)
    assert led.flops == 2 * 3 * 4 + 3 + 4


# ---------------------------------------------------------------------------
# column translation
# ---------------------------------------------------------------------------


def test_translate_column_zero_in_zero_out():
    a_c = DyadicKey(1, (1,))
    b_p = DyadicKey(1, (0,))
    out = translate(_column_contribution, a_c, b_p, [np.zeros(4, dtype=complex)] * 2, get_phase("fourier"), 4)
    assert np.allclose(out, 0.0)


def test_translate_column_conserves_mass_flat_phase():
    # rows of each re-interpolation matrix sum to one over the parent basis,
    # so with no phase the total weight is preserved exactly
    rng = np.random.default_rng(33)
    a_c = DyadicKey(1, (0,))
    b_p = DyadicKey(1, (1,))
    vals = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(2)]
    out = translate(_column_contribution, a_c, b_p, vals, FLAT, 5)
    assert np.sum(out) == pytest.approx(
        np.sum(vals[0]) + np.sum(vals[1]), abs=1e-12
    )


def test_translate_column_flop_count():
    led = ledger()
    a_c = DyadicKey(1, (1,))
    b_p = DyadicKey(1, (0,))
    q = 8
    translate(_column_contribution, a_c, b_p, [np.ones(q, dtype=complex)] * 2, get_phase("fourier"), q, led)
    assert led.flops == 2 * (2 * q * q + 3 * q)


def test_translate_column_matches_direct_resum():
    # re-expanded equivalent sources must induce the same potential as the
    # child expansions did, up to interpolation error
    rng = np.random.default_rng(43)
    phase = get_phase("fourier")
    q = 8
    a_c = DyadicKey(1, (0,))
    b_p = DyadicKey(3, (6,))
    child_keys = children(b_p)
    vals = [rng.normal(size=q) + 1j * rng.normal(size=q) for _ in child_keys]
    out = translate(_column_contribution, a_c, b_p, vals, phase, q)
    lo = a_c.coords[0] / 2.0
    x = rng.uniform(lo, lo + 0.5, size=(25, 1))
    f_children = sum(column_potential(b_n, v, x, phase, q) for b_n, v in zip(child_keys, vals))
    f_parent = column_potential(b_p, out, x, phase, q)
    rel = np.max(np.abs(f_parent - f_children)) / np.max(np.abs(f_children))
    assert rel <= 1e-6


# ---------------------------------------------------------------------------
# middle switch
# ---------------------------------------------------------------------------


def make_column_block(a, b, pos, g, phase, q):
    """Column weights for an arbitrary pair, straight from the definition."""
    grid = cheb_grid(q, box_of(b))
    xa = np.asarray(center_of(a))
    mod = np.exp(1j * phase(np.broadcast_to(xa, pos.shape), pos))
    moments = lagrange_matrix(grid, pos).T @ (mod * g)
    demod = np.exp(
        -1j * phase(np.broadcast_to(xa, grid.points.shape), grid.points)
    )
    return demod * moments


def test_middle_switch_zero():
    out = middle_switch(DyadicKey(1, (0,)), DyadicKey(1, (1,)), np.zeros(3, dtype=complex), get_phase("fourier"), 3)
    assert np.allclose(out, 0.0)


def test_middle_switch_rank_one_is_identity():
    # with one node per dimension the kernel sample and the demodulation are
    # both taken at the same centers and cancel exactly
    w = np.array([1.5 - 0.5j])
    out = middle_switch(DyadicKey(1, (1,)), DyadicKey(1, (0,)), w, get_phase("fourier"), 1)
    assert np.allclose(out, w, atol=1e-15)


def test_middle_switch_flop_count():
    led = ledger()
    middle_switch(DyadicKey(1, (0,)), DyadicKey(1, (1,)), np.ones(4, dtype=complex), get_phase("fourier"), 4, led)
    assert led.flops == 2 * 16 + 2 * 4


def test_switch_preserves_potential():
    # column and row representations of the same pair agree with the direct
    # sum on the pair's target box
    rng = np.random.default_rng(55)
    phase = get_phase("fourier")
    q = 8
    a = DyadicKey(2, (1,))
    b = DyadicKey(2, (2,))
    pos = rng.uniform(0.5, 0.75, size=(12, 1))
    g = rng.normal(size=12) + 1j * rng.normal(size=12)
    col = make_column_block(a, b, pos, g, phase, q)
    x = rng.uniform(0.25, 0.5, size=(20, 1))
    direct = kernel_matrix(phase, x, pos) @ g
    f_col = column_potential(b, col, x, phase, q)
    row = middle_switch(a, b, col, phase, q)
    f_row = evaluate_block(a, b, row, x, phase, q)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(f_col - direct)) / scale <= 1e-6
    assert np.max(np.abs(f_row - direct)) / scale <= 1e-6
    assert np.max(np.abs(f_row - f_col)) / scale <= 1e-6


# ---------------------------------------------------------------------------
# row translation and evaluation
# ---------------------------------------------------------------------------


def test_translate_row_polynomial_reproduction():
    # row weights are samples of a smooth factor; with a flat phase the
    # translation is plain re-interpolation, exact on low-degree polynomials
    q = 5
    a_c = DyadicKey(1, (0,))
    b_p = DyadicKey(1, (1,))
    a = DyadicKey(0, (0,))
    root_nodes = cheb_grid(q, box_of(a)).points[:, 0]

    def p(y):
        return y**4 - 0.3 * y**2 + 0.1

    vals = [p(root_nodes).astype(complex), np.zeros(q, dtype=complex)]
    out = translate(_row_contribution, a_c, b_p, vals, FLAT, q)
    fine_nodes = cheb_grid(q, box_of(a_c)).points[:, 0]
    assert np.allclose(out, p(fine_nodes), atol=1e-12)


def test_evaluate_at_grid_node_closed_form():
    phase = get_phase("fourier")
    q = 4
    a = DyadicKey(1, (1,))
    b = DyadicKey(1, (0,))
    vals = np.zeros(q, dtype=complex)
    vals[2] = 1.0
    node = cheb_grid(q, box_of(a)).points[2]
    got = evaluate_block(a, b, vals, node[None, :], phase, q, check_inside=True)[0]
    yb = np.asarray(center_of(b))
    expect = np.exp(1j * phase(node[None, :], yb[None, :])[0])
    assert got == pytest.approx(expect, abs=1e-14)


def test_evaluate_outside_box_raises():
    a, b = DyadicKey(1, (0,)), DyadicKey(1, (1,))
    with pytest.raises(ValueError):
        evaluate_block(a, b, np.zeros(3, dtype=complex), np.array([[0.9]]), get_phase("fourier"), 3, check_inside=True)


def test_child_matrices_match_dimwise_contraction():
    # the dense re-interpolation matrix of child n is the tensor product of
    # the 1-d half-interval matrices, with dimension 0 fastest in the flat index
    rng = np.random.default_rng(61)
    q, d = 4, 2
    m1 = _child_matrices_1d(q)
    for n in range(1 << d):
        v = rng.normal(size=q**d) + 1j * rng.normal(size=q**d)
        tensor = v.reshape((q,) * d, order="F")
        for k in range(d):
            tensor = np.moveaxis(np.tensordot(m1[(n >> k) & 1], tensor, axes=([1], [k])), 0, k)
        dense = _child_matrices(q, d)[n] @ v
        assert np.max(np.abs(dense - tensor.reshape(-1, order="F"))) <= 1e-13 * np.max(np.abs(dense))
