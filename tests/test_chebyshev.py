"""Chebyshev grids, Lagrange interpolation, the block weight operations
(initialization onto the level-1 pairs, the child sum of stage 0, column
stages) and the batched evaluation of a PotentialField, checked against
direct kernel summation and against per-pair and per-leaf oracles."""

from __future__ import annotations

import itertools
from collections import OrderedDict

import numpy as np
import pytest

import bfly.chebyshev as cheb
import bfly.engine
from bfly.chebyshev import (
    _child_matrices,
    _child_matrices_1d,
    _reference_nodes,
    _stage_matrices,
    _tensor_basis,
    cached_matrix_bytes,
    child_sum_stage,
    column_stage,
    grid_points,
    init_source_weights,
)
from bfly.costs import CostLedger, CostParams
from bfly.engine import PotentialField, SourceSet, butterfly_apply
from bfly.geometry import DyadicKey, leaf_coords, offset_index, parent_block
from bfly.parallel import simulate_parallel
from bfly.phases import PhaseEvaluator, get_phase, kernel_matrix

FLAT = PhaseEvaluator("flat", None, lambda x, y: np.zeros(np.broadcast_shapes(x.shape, y.shape)[:-1]))
UNIT1 = DyadicKey(0, (0,))


def ledger():
    return CostLedger(CostParams())


# Per-box geometry of dyadic keys, for the oracles below.


def box_of(key):
    """(lower corner, edge lengths) of a dyadic box."""
    w = 1.0 / (1 << key.level)
    return tuple(c * w for c in key.coords), (w,) * key.dim


def center_of(key):
    lower, width = box_of(key)
    return np.asarray([lo + w / 2.0 for lo, w in zip(lower, width)])


def grid_of(key, q):
    """The Chebyshev grid of a dyadic box: (q^d, d), dimension 0 fastest."""
    return grid_points(q, key.level, np.asarray(key.coords))


def basis_on_box(q, lower, width, pts):
    """Every tensor Lagrange basis function of the grid on the box
    lower/width at pts: (len(pts), q^d)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return _tensor_basis(q, np.repeat(np.asarray(lower, dtype=float)[:, None], len(pts), axis=1), width, pts)


def lagrange_of(key, q, pts):
    """basis_on_box on a dyadic box."""
    return basis_on_box(q, *box_of(key), pts)


def children(key):
    """The 2^d children in child-index order (dimension 0 least significant)."""
    return [
        DyadicKey(key.level + 1, tuple(2 * c + ((n >> k) & 1) for k, c in enumerate(key.coords)))
        for n in range(1 << key.dim)
    ]


def parent(key):
    return DyadicKey(key.level - 1, tuple(c // 2 for c in key.coords))


def child_index(key):
    return offset_index(tuple(c & 1 for c in key.coords))


def column_potential(b, values, pts, phase, q):
    """Column weights of a pair with source box b as equivalent point sources
    at b's grid: f(x) = sum_t K(x, b_t) delta_t."""
    return kernel_matrix(phase, pts, grid_of(b, q)) @ values


# Per-pair oracles: one child's contribution to one output pair (A_c, B_p),
# and one leaf's initialization, box by box.


def column_contribution(a_c, b_p, b_child, values, phase, q):
    xc = center_of(a_c)
    v = np.exp(1j * phase(xc, grid_of(b_child, q))) * values
    w = _child_matrices(q, a_c.dim)[child_index(b_child)] @ v
    return np.exp(-1j * phase(xc, grid_of(b_p, q))) * w


def column_weights(a, b, positions, strengths, phase, q):
    """Column weights of the pair (A, B) straight from the definition: the
    sources interpolated onto the grid of B, demodulated at the center of A."""
    xa = center_of(a)
    moments = lagrange_of(b, q, positions).T @ (np.exp(1j * phase(xa, positions)) * strengths)
    return np.exp(-1j * phase(xa, grid_of(b, q))) * moments


def first_targets(level, d):
    """The target boxes of init_source_weights: the root's children, or the
    root itself in a one-leaf tree."""
    a = min(level, 1)
    return [DyadicKey(a, c) for c in itertools.product(range(1 << a), repeat=d)]


def init_oracle(b, positions, strengths, phase, q):
    """What leaf b puts on the pairs (A, parent(b)), one row per A of
    first_targets in canonical order."""
    p = parent(b) if b.level else b
    return np.stack([column_weights(a, p, positions, strengths, phase, q) for a in first_targets(b.level, b.dim)])


def translate(stage, a_c, b_p, child_values, phase, q, led=None):
    """Weights of (A_c, B_p) as a stage builds them from the pairs
    (parent(A_c), B_n), B_n the children of B_p in child order."""
    d = a_c.dim
    a = parent(a_c)
    values = np.zeros((1,) * d + (2,) * d + (q**d,), dtype=complex)
    for b_n, v in zip(children(b_p), child_values):
        values[(0,) * d + tuple(c & 1 for c in b_n.coords)] = v
    out = stage(a.level, a.coords, b_p.level + 1, tuple(2 * c for c in b_p.coords), values, phase, q, led)
    return out[tuple(c & 1 for c in a_c.coords) + (0,) * d]


def leaf_init(b, positions, strengths, phase, q, led=None):
    """init_source_weights on the single leaf box b: one row per target box."""
    positions = np.asarray(positions, dtype=float).reshape(-1, b.dim)
    leaves = np.tile(np.asarray(b.coords), (positions.shape[0], 1))
    out = init_source_weights(b.level, b.coords, (1,) * b.dim, positions, strengths, leaves, phase, q, led)
    return out.reshape(len(first_targets(b.level, b.dim)), -1)


def field_oracle(field, pts, q=None):
    """A field evaluated leaf by leaf as the kernel against the leaf's
    equivalent sources: for cheb (q given) the root's grid, built here
    rather than read from the field; for id the leaf's skeleton points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    leaves = leaf_coords(pts, field.level)
    out = np.zeros(len(pts), dtype=complex)
    for coords in {tuple(int(c) for c in row) for row in leaves}:
        sel = np.all(leaves == coords, axis=1)
        w = field.weight_vector(DyadicKey(field.level, coords))
        sources = field.skeleton[coords][: len(w)] if q is None else grid_of(DyadicKey(0, (0,) * field.d), q)
        out[sel] = kernel_matrix(field.phase, pts[sel], sources) @ w
    return out


def lagrange_eval(key, q, t, y) -> float:
    """L_t(y) of the grid of a dyadic box from the product formula, one
    factor per dimension."""
    out = 1.0
    for k, yk in enumerate(y):
        nodes = grid_points(q, key.level, np.array([key.coords[k]]))[:, 0]
        i = (t // q**k) % q
        others = np.delete(nodes, i)
        out *= float(np.prod((yk - others) / (nodes[i] - others)))
    return out


# The per-box construction the grids and child matrices were first built
# with, kept here as the reference they must reproduce bit for bit.


def per_box_grid(q, lower, width):
    """Nodes lower + width * (z + 1) / 2 along each dimension of a box,
    meshed with dimension 0 fastest: (q^d, d)."""
    z, _ = _reference_nodes(q)
    nodes = [lo + w * (z + 1.0) / 2.0 for lo, w in zip(lower, width)]
    mesh = np.meshgrid(*nodes, indexing="ij")
    return np.stack([g.flatten(order="F") for g in mesh], axis=1)


def per_box_basis(q, lower, width, pts):
    """The tensor barycentric basis of the grid on one box at pts, with exact
    node hits short-circuited: (len(pts), q^d)."""
    z, w = _reference_nodes(q)
    n, d = pts.shape
    acc = np.ones((n, 1))
    for k in range(d - 1, -1, -1):
        x = pts[:, k]
        nodes = lower[k] + width[k] * (z + 1.0) / 2.0
        s = 2.0 * (x - lower[k]) / width[k] - 1.0
        diff = s[:, None] - z[None, :]
        hit = (diff == 0.0) | (x[:, None] == nodes)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = w[None, :] / diff
            basis = terms / np.sum(terms, axis=1, keepdims=True)
        rows = np.any(hit, axis=1)
        if np.any(rows):
            basis[rows] = 0.0
            basis[hit] = 1.0
        acc = (acc[:, :, None] * basis[:, None, :]).reshape(n, -1)
    return acc


def per_box_child_matrices(q, d):
    """M[n][t', t]: basis t' of the unit box at node t of the grid of child n."""
    out = []
    for n in range(1 << d):
        lower = tuple(0.5 * ((n >> k) & 1) for k in range(d))
        out.append(per_box_basis(q, (0.0,) * d, (1.0,) * d, per_box_grid(q, lower, (0.5,) * d)).T)
    return np.stack(out)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_single_node_is_center():
    assert np.allclose(grid_of(UNIT1, 1), [[0.5]])


def test_two_node_positions():
    x = grid_of(UNIT1, 2)[:, 0]
    lo = 0.5 * (1.0 - np.cos(np.pi / 4))
    assert np.allclose(x, [lo, 1.0 - lo])
    assert np.allclose(x, [0.14644660940672627, 0.8535533905932737])


def test_nodes_ascending_and_interior():
    for q in (2, 3, 5, 8):
        x = grid_of(UNIT1, q)[:, 0]
        assert np.all(np.diff(x) > 0)
        assert np.all((x > 0) & (x < 1))


def test_tensor_flattening_dim0_fastest():
    g = grid_of(DyadicKey(0, (0, 0)), 2)
    a, b = grid_of(UNIT1, 2)[:, 0]
    expect = np.array([[a, a], [b, a], [a, b], [b, b]])
    assert np.allclose(g, expect)
    assert g.shape[0] == 4


def test_grid_scales_affinely():
    g = grid_of(DyadicKey(2, (1,)), 3)
    ref = grid_of(UNIT1, 3)
    assert np.allclose(g[:, 0], 0.25 + 0.25 * ref[:, 0])


def test_grid_points_match_per_box_grids():
    # whole blocks of boxes at once give each box's own grid, bit for bit
    rng = np.random.default_rng(2)
    for d in (1, 2, 3):
        for q in (1, 2, 3, 5, 8):
            level = int(rng.integers(0, 6))
            coords = rng.integers(0, 1 << level, size=(7, d))
            got = grid_points(q, level, coords)
            for c, pts in zip(coords, got):
                w = 1.0 / (1 << level)
                assert np.array_equal(pts, per_box_grid(q, c * w, (w,) * d))


@pytest.mark.parametrize("q,d", [(q, d) for d in (1, 2, 3) for q in range(1, 13 if d < 3 else 9)])
def test_child_and_stage_matrices_match_per_box_construction(q, d):
    # d = 3 stops at q = 8: at q = 12 the matrices alone would take about 1 GB
    m = per_box_child_matrices(q, d)
    assert np.array_equal(_child_matrices(q, d), m)
    # uncached, so the larger stage matrices are not kept for the session
    column = _stage_matrices.__wrapped__(q, d)
    assert np.array_equal(column, np.transpose(m, (0, 2, 1)).astype(complex))


@pytest.mark.parametrize("q,d", [(2, 1), (7, 1), (3, 2), (5, 2), (2, 3), (3, 3)])
def test_cached_matrix_bytes_counts_the_cached_matrices(q, d):
    column = _stage_matrices.__wrapped__(q, d)
    assert cached_matrix_bytes(q, d) == _child_matrices.__wrapped__(q, d).nbytes + column.nbytes


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def test_lagrange_cardinality_exact():
    g = grid_of(UNIT1, 5)
    assert np.array_equal(lagrange_of(UNIT1, 5, g), np.eye(5))
    key = DyadicKey(1, (0, 1))
    assert np.array_equal(lagrange_of(key, 3, grid_of(key, 3)), np.eye(9))


def test_lagrange_partition_of_unity():
    rng = np.random.default_rng(3)
    pts = np.stack(
        [rng.uniform(0.25, 0.5, 40), rng.uniform(0.0, 0.5, 40)], axis=1
    )
    sums = basis_on_box(6, (0.25, 0.0), (0.25, 0.5), pts).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)


def product_weights(q):
    """Barycentric weights by their defining product, 1/prod(z_k - z_j),
    scaled to a largest magnitude of 1."""
    z, _ = _reference_nodes(q)
    w = np.array([1.0 / np.prod(z[i] - np.delete(z, i)) for i in range(q)])
    return w / np.max(np.abs(w))


def test_weights_match_the_product_formula():
    for q in range(1, 41):
        assert np.max(np.abs(_reference_nodes(q)[1] - product_weights(q))) <= 1e-13, q


@pytest.mark.parametrize("q", [900, 1500, 2309])
def test_weights_stay_finite_and_the_basis_sums_to_one_at_large_q(q):
    _, w = _reference_nodes(q)
    assert np.all(np.isfinite(w)) and np.all(w != 0.0)
    rng = np.random.default_rng(q)
    pts = rng.uniform(0.25, 0.5, (20, 1))
    with np.errstate(all="raise"):
        sums = basis_on_box(q, (0.25,), (0.25,), pts).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)


def test_q1_basis_is_constant_one():
    pts = np.linspace(0.0, 1.0, 7)[:, None]
    assert np.allclose(lagrange_of(UNIT1, 1, pts), 1.0)


def test_polynomial_reproduction():
    rng = np.random.default_rng(9)

    def p(y):
        return 3 * y**4 - 2 * y**3 + y - 0.5

    coeffs = p(grid_of(UNIT1, 5)[:, 0])
    pts = rng.uniform(size=(50, 1))
    interp = lagrange_of(UNIT1, 5, pts) @ coeffs
    assert np.allclose(interp, p(pts[:, 0]), atol=1e-12)


def test_lagrange_eval_matches_matrix():
    # the barycentric form agrees with the textbook product formula
    for key, q, y in ((UNIT1, 4, [0.3]), (DyadicKey(1, (0, 1)), 3, [0.1, 0.7])):
        row = lagrange_of(key, q, np.array([y]))
        for t in range(q**key.dim):
            assert lagrange_eval(key, q, t, y) == pytest.approx(row[0, t], abs=1e-14)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_empty_box_gives_zero_block():
    w = leaf_init(DyadicKey(2, (3,)), np.zeros((0, 1)), np.zeros(0, dtype=complex), FLAT, 4)
    assert np.array_equal(w, np.zeros((2, 4), dtype=complex))


def test_init_node_source_flat_phase_one_hot():
    # a source on a node of the parent's grid is that node's weight, for
    # both children of the root
    b = DyadicKey(2, (1,))
    node = grid_of(parent(b), 4)[[2]]
    assert 0.25 <= node[0, 0] < 0.5
    g = 2.0 - 1.0j
    w = leaf_init(b, node, np.array([g]), FLAT, 4)
    expect = np.zeros((2, 4), dtype=complex)
    expect[:, 2] = g
    assert np.array_equal(w, expect)


def test_init_one_leaf_tree_gives_the_final_weights():
    # level 0: the root is the leaf, the whole domain the only target box,
    # and the weights are on the root's own grid
    rng = np.random.default_rng(19)
    phase = get_phase("fourier")
    root = DyadicKey(0, (0,))
    pos = rng.uniform(size=(6, 1))
    g = rng.normal(size=6) + 1j * rng.normal(size=6)
    w = leaf_init(root, pos, g, phase, 12)
    assert w.shape == (1, 12)
    x = rng.uniform(size=(30, 1))
    direct = kernel_matrix(phase, x, pos) @ g
    assert np.max(np.abs(column_potential(root, w[0], x, phase, 12) - direct)) <= 1e-6 * np.max(np.abs(direct))


def test_init_column_weights_reproduce_direct_sum():
    # pairs (child of the root, parent of one fine box): the width product
    # is small enough that the rank-q expansion is essentially exact on the
    # target box
    rng = np.random.default_rng(21)
    phase = get_phase("fourier")
    b = DyadicKey(4, (5,))
    lo = 5.0 / 16.0
    pos = rng.uniform(lo, lo + 1.0 / 16.0, size=(8, 1))
    g = rng.normal(size=8) + 1j * rng.normal(size=8)
    w = leaf_init(b, pos, g, phase, 8)
    for a, weights in zip(first_targets(4, 1), w):
        x = rng.uniform(a.coords[0] / 2.0, (a.coords[0] + 1) / 2.0, size=(30, 1))
        direct = kernel_matrix(phase, x, pos) @ g
        approx = column_potential(parent(b), weights, x, phase, 8)
        rel = np.max(np.abs(approx - direct)) / np.max(np.abs(direct))
        assert rel <= 1e-6


def test_init_rejects_outside_sources():
    with pytest.raises(ValueError, match="outside"):
        leaf_init(DyadicKey(2, (0,)), np.array([[0.9]]), np.ones(1, dtype=complex), FLAT, 4)
    # sources must come sorted by leaf box, so each box is one segment
    pos = np.array([[0.6], [0.1]])
    leaves = np.array([[1], [0]])
    with pytest.raises(ValueError, match="sorted"):
        init_source_weights(1, (0,), (2,), pos, np.ones(2, dtype=complex), leaves, FLAT, 4)


def test_init_flop_count():
    # per occupied box and per target box: 2r + 1 per source, r for the box
    led = ledger()
    b = DyadicKey(1, (0,))
    pos = np.array([[0.1], [0.2], [0.3]])
    leaf_init(b, pos, np.ones(3, dtype=complex), FLAT, 4, led)
    assert led.flops == 2 * (2 * 3 * 4 + 3 + 4)
    # a block charges each occupied box alone; empty boxes cost nothing
    led = ledger()
    init_source_weights(2, (0,), (4,), np.array([[0.1], [0.2], [0.8]]), np.ones(3, dtype=complex),
                        np.array([[0], [0], [3]]), FLAT, 4, led)
    assert led.flops == 2 * ((2 * 2 * 4 + 2 + 4) + (2 * 1 * 4 + 1 + 4))
    # a one-leaf tree has one target box
    led = ledger()
    leaf_init(DyadicKey(0, (0, 0)), np.array([[0.1, 0.7]]), np.ones(1, dtype=complex), FLAT, 3, led)
    assert led.flops == 2 * 9 + 1 + 9


def test_init_block_matches_per_leaf_oracle():
    rng = np.random.default_rng(23)
    phase = get_phase("fourier")
    for d, level, q in ((1, 3, 5), (2, 2, 3), (2, 0, 4)):
        pos = rng.uniform(size=(60, d))
        g = rng.normal(size=60) + 1j * rng.normal(size=60)
        leaves = np.minimum((pos * (1 << level)).astype(int), (1 << level) - 1)
        order = np.argsort(np.ravel_multi_index(tuple(leaves.T), (1 << level,) * d), kind="stable")
        out = init_source_weights(level, (0,) * d, (1 << level,) * d, pos[order], g[order], leaves[order], phase, q)
        targets = first_targets(level, d)
        assert out.shape == (1 << min(level, 1),) * d + (1 << level,) * d + (q**d,)
        for coords in itertools.product(range(1 << level), repeat=d):
            sel = np.all(leaves == coords, axis=1)
            expect = init_oracle(DyadicKey(level, coords), pos[sel], g[sel], phase, q)
            for a, row in zip(targets, expect):
                got = out[a.coords + coords]
                assert np.allclose(got, row, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(row))))


# ---------------------------------------------------------------------------
# stage 0: the child sum
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,level,q", [(1, 3, 6), (2, 2, 3), (3, 1, 2)])
def test_child_sum_stage_gives_the_column_weights_of_level_1(d, level, q):
    # the leaves' shares of each parent add up to the parent's sources
    # interpolated in one step: the column weights of the level-1 pairs
    rng = np.random.default_rng(25 + d)
    phase = get_phase("fourier")
    n = 20 * 2**d
    pos = rng.uniform(size=(n, d))
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    leaves = np.minimum((pos * (1 << level)).astype(int), (1 << level) - 1)
    order = np.argsort(np.ravel_multi_index(tuple(leaves.T), (1 << level,) * d), kind="stable")
    values = init_source_weights(level, (0,) * d, (1 << level,) * d, pos[order], g[order], leaves[order], phase, q)
    out = child_sum_stage((0,) * d, values)
    assert out.shape == (2,) * d + (1 << (level - 1),) * d + (q**d,)
    for a in first_targets(level, d):
        for bp in itertools.product(range(1 << (level - 1)), repeat=d):
            sel = np.all(leaves // 2 == bp, axis=1)
            expect = column_weights(a, DyadicKey(level - 1, bp), pos[sel], g[sel], phase, q)
            assert np.max(np.abs(out[a.coords + bp] - expect)) <= 1e-13 * max(1.0, np.max(np.abs(expect)))


def test_child_sum_stage_sums_in_canonical_order_and_counts_flops():
    # rounding tells the add order apart: 1e16 + 1 rounds back to 1e16
    values = np.zeros((2, 2, 4, 4, 1), dtype=complex)
    values[0, 1, 2:, :2, 0] = [[1e16, 1.0], [-1e16, 1.0]]
    led = ledger()
    out = child_sum_stage((0, 0), values, led)
    assert out[0, 1, 1, 0, 0] == 1.0  # ((1e16 + 1) - 1e16) + 1, offsets (0,0), (0,1), (1,0), (1,1)
    assert np.count_nonzero(out) == 1
    assert led.flops == 16 * 4
    assert values[0, 1, 2, 0, 0] == 1e16  # the input is left as it was
    # split dimensions keep the children apart, as column stages do
    halves = child_sum_stage((0, 0), values, split=(1,))
    assert halves.shape == (2,) + out.shape
    assert halves[0, 0, 1, 1, 0, 0] == 0.0 and halves[1, 0, 1, 1, 0, 0] == 2.0


# ---------------------------------------------------------------------------
# column translation
# ---------------------------------------------------------------------------


def test_translate_column_zero_in_zero_out():
    a_c = DyadicKey(1, (1,))
    b_p = DyadicKey(1, (0,))
    out = translate(column_stage, a_c, b_p, [np.zeros(4, dtype=complex)] * 2, get_phase("fourier"), 4)
    assert np.allclose(out, 0.0)


def test_translate_column_conserves_mass_flat_phase():
    # rows of each re-interpolation matrix sum to one over the parent basis,
    # so with no phase the total weight is preserved exactly
    rng = np.random.default_rng(33)
    a_c = DyadicKey(1, (0,))
    b_p = DyadicKey(1, (1,))
    vals = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(2)]
    out = translate(column_stage, a_c, b_p, vals, FLAT, 5)
    assert np.sum(out) == pytest.approx(
        np.sum(vals[0]) + np.sum(vals[1]), abs=1e-12
    )


def test_translate_column_flop_count():
    # each input pair feeds each of the 2^d children of its target box
    q = 8
    led = ledger()
    translate(column_stage, DyadicKey(1, (1,)), DyadicKey(1, (0,)), [np.ones(q, dtype=complex)] * 2, get_phase("fourier"), q, led)
    assert led.flops == 2 * 2 * (2 * q * q + 3 * q)
    led = ledger()
    values = np.ones((2, 2, 4, 4, 9), dtype=complex)
    column_stage(1, (0, 0), 2, (0, 0), values, get_phase("fourier"), 3, led)
    assert led.flops == 64 * 4 * (2 * 81 + 3 * 9)


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
    out = translate(column_stage, a_c, b_p, vals, phase, q)
    lo = a_c.coords[0] / 2.0
    x = rng.uniform(lo, lo + 0.5, size=(25, 1))
    f_children = sum(column_potential(b_n, v, x, phase, q) for b_n, v in zip(child_keys, vals))
    f_parent = column_potential(b_p, out, x, phase, q)
    rel = np.max(np.abs(f_parent - f_children)) / np.max(np.abs(f_children))
    assert rel <= 1e-6


@pytest.mark.parametrize("d,L,level,q", [(1, 4, 1, 4), (1, 4, 2, 3), (2, 3, 0, 3), (2, 3, 1, 2), (2, 3, 2, 3)])
def test_stages_match_per_pair_oracle(d, L, level, q):
    rng = np.random.default_rng(47 + d + level)
    phase = get_phase("fourier") if d == 1 else get_phase("hyp-radon")
    r = q**d
    values = rng.normal(size=(1 << level,) * d + (1 << (L - level),) * d + (r,)) * (1 + 1j)
    out = column_stage(level, (0,) * d, L - level, (0,) * d, values, phase, q)
    assert out.shape == (2 << level,) * d + (1 << (L - level - 1),) * d + (r,)
    scale = np.max(np.abs(out))
    for ac in itertools.product(range(2 << level), repeat=d):
        for bp in itertools.product(range(1 << (L - level - 1)), repeat=d):
            a_c, b_p = DyadicKey(level + 1, ac), DyadicKey(L - level - 1, bp)
            a = parent(a_c).coords
            expect = sum(column_contribution(a_c, b_p, b_n, values[a + b_n.coords], phase, q) for b_n in children(b_p))
            assert np.max(np.abs(out[ac + bp] - expect)) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# blocks: a rank's share of a level gives the whole level's bits
# ---------------------------------------------------------------------------


def aligned_blocks(n):
    """Every aligned dyadic run (lo, extent) inside range(n), n a power of two."""
    out = []
    extent = 1
    while extent <= n:
        out.extend((lo, extent) for lo in range(0, n, extent))
        extent *= 2
    return out


def sub_blocks(d, a_n, b_n):
    for a_runs in itertools.product(aligned_blocks(a_n), repeat=d):
        for b_runs in itertools.product(aligned_blocks(b_n), repeat=d):
            yield tuple(a for a, _ in a_runs), tuple(n for _, n in a_runs), tuple(b for b, _ in b_runs), tuple(n for _, n in b_runs)


def masked_children(values, d, held):
    """values with the source children a block does not hold set to zero:
    held[k] is the parity the block holds in dimension k, None for both."""
    masked = values.copy()
    for k, h in enumerate(held):
        if h is not None:
            masked[(slice(None),) * (d + k) + (slice(1 - h, None, 2),)] = 0.0
    return masked


def check_block_stages(d, L, level, q, blocks):
    """Each block (a_lo, a_shape, b_lo, b_shape) of the pairs of a level must
    give bit for bit the rows of the whole-level column stage over the
    children it holds: that is what lets p = 1 and every simulated rank
    reproduce butterfly_apply. The whole-level reference zeroes the other
    children, whose exact-zero contributions leave the sums unchanged."""
    rng = np.random.default_rng(53 + d + level)
    phase = get_phase("fourier")
    r = q**d
    a_n, b_n = 1 << level, 1 << (L - level)
    values = rng.normal(size=(a_n,) * d + (b_n,) * d + (r,)) + 1j * rng.normal(size=(a_n,) * d + (b_n,) * d + (r,))
    whole = {}  # parity held per dimension, None for both -> whole-level output
    for a_lo, a_shape, b_lo, b_shape in blocks:
        index = tuple(slice(lo, lo + n) for lo, n in zip(a_lo + b_lo, a_shape + b_shape))
        held = tuple(None if n > 1 else lo % 2 for lo, n in zip(b_lo, b_shape))
        bp_lo, bp_shape = parent_block(b_lo, b_shape)
        out_index = tuple(slice(2 * lo, 2 * (lo + n)) for lo, n in zip(a_lo, a_shape))
        out_index += tuple(slice(lo, lo + n) for lo, n in zip(bp_lo, bp_shape))
        if held not in whole:
            whole[held] = column_stage(level, (0,) * d, L - level, (0,) * d, masked_children(values, d, held), phase, q)
        got = column_stage(level, a_lo, L - level, b_lo, values[index], phase, q)
        assert np.array_equal(got, whole[held][out_index]), (a_lo, a_shape, b_lo, b_shape)


@pytest.mark.parametrize("d,L,level,q", [(1, 4, 1, 4), (1, 4, 3, 3), (2, 3, 1, 3), (2, 3, 2, 2)])
def test_block_stage_rows_are_bit_stable(d, L, level, q):
    # every aligned block, down to one pair
    check_block_stages(d, L, level, q, sub_blocks(d, 1 << level, 1 << (L - level)))


def test_large_block_stage_rows_are_bit_stable():
    # A whole level whose stage arrays exceed 256 KiB, above which numpy may
    # reuse a temporary operand in place, against a few small blocks of it.
    check_block_stages(1, 11, 1, 16, [((0,), (1,), (0,), (2,)), ((1,), (1,), (6,), (1,)), ((0,), (2,), (512,), (512,))])


def test_init_block_rows_are_bit_stable():
    rng = np.random.default_rng(59)
    phase = get_phase("fourier")
    d, level, q = 2, 3, 3
    pos = rng.uniform(size=(300, d))
    g = rng.normal(size=300) + 1j * rng.normal(size=300)
    leaves = np.minimum((pos * 8).astype(int), 7)
    order = np.argsort(np.ravel_multi_index(tuple(leaves.T), (8, 8)), kind="stable")
    pos, g, leaves = pos[order], g[order], leaves[order]
    whole = init_source_weights(level, (0, 0), (8, 8), pos, g, leaves, phase, q)
    for runs in itertools.product(aligned_blocks(8), repeat=d):
        lo = np.array([a for a, _ in runs])
        shape = tuple(n for _, n in runs)
        inside = np.all((leaves >= lo) & (leaves < lo + shape), axis=1)
        got = init_source_weights(level, tuple(lo), shape, pos[inside], g[inside], leaves[inside], phase, q)
        assert np.array_equal(got, whole[(slice(None),) * d + tuple(slice(a, a + n) for a, n in runs)])


@pytest.mark.parametrize("d,L", [(1, 4), (2, 3)])
def test_child_sum_block_rows_are_bit_stable(d, L):
    # stage 0 on every aligned block of leaves (the targets are always both
    # children of the root) against the whole level over the children held
    rng = np.random.default_rng(61 + d)
    shape = (2,) * d + (1 << L,) * d + (3,)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    whole = {}
    for runs in itertools.product(aligned_blocks(1 << L), repeat=d):
        b_lo, b_shape = tuple(a for a, _ in runs), tuple(n for _, n in runs)
        held = tuple(None if n > 1 else lo % 2 for lo, n in zip(b_lo, b_shape))
        if held not in whole:
            whole[held] = child_sum_stage((0,) * d, masked_children(values, d, held))
        bp_lo, bp_shape = parent_block(b_lo, b_shape)
        got = child_sum_stage(b_lo, values[(slice(None),) * d + tuple(slice(a, a + n) for a, n in runs)])
        assert np.array_equal(got, whole[held][(slice(None),) * d + tuple(slice(a, a + n) for a, n in zip(bp_lo, bp_shape))])


# ---------------------------------------------------------------------------
# the process-wide cache of the column stages' exp(+-i*Phi) factors
# ---------------------------------------------------------------------------


@pytest.fixture
def no_factors(monkeypatch):
    """An empty cache for the test, the process's own put back after."""
    monkeypatch.setattr(cheb, "_factors", OrderedDict())
    monkeypatch.setattr(cheb, "_factor_bytes", 0)
    monkeypatch.setattr(cheb, "_seen", {})


def counted(phase):
    """phase as a new evaluator, and the list of the number of point pairs
    of each of its calls."""
    pairs = []

    def fn(xs, ys):
        pairs.append(int(np.prod(np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1]))))
        return phase.fn(xs, ys)

    return PhaseEvaluator(phase.name, phase.dim, fn), pairs


def cached_for(phase):
    return [entry for entry in cheb._factors.values() if entry[0] is phase]


def solve_bits(phase, N=8, d=2, q=4, p=None, seed=5):
    rng = np.random.default_rng(seed)
    s = SourceSet(rng.uniform(size=(300, d)), rng.normal(size=300) + 1j * rng.normal(size=300))
    if p is None:
        f = butterfly_apply(s, phase, N, q=q)
        return f.values, [f.ledger.flops]
    res = simulate_parallel(s, phase, N, p=p, q=q)
    return res.field.values, [(led.flops, led.messages, led.entries_sent) for led in res.ledgers]


@pytest.mark.parametrize("p", [None, 4])
def test_warm_cold_and_uncached_solves_agree(p, no_factors, monkeypatch):
    phase, pairs = counted(get_phase("hyp-radon"))
    cold = solve_bits(phase, p=p)
    # the init's call, then one call per grid: two column stages, 1 + 2^d grids each
    init, *grids = list(pairs)
    assert len(grids) == 2 * 5 and cheb._factors == {}  # a first solve keeps nothing
    del pairs[:]
    assert np.array_equal(solve_bits(phase, p=p)[0], cold[0])
    # the second keeps every stage's factors, each with a two-pair probe
    assert pairs == [init, *grids[:5], 2, *grids[5:], 2] and len(cached_for(phase)) == 2
    del pairs[:]
    warm = solve_bits(phase, p=p)
    # warm, each stage only evaluates its probe
    assert pairs == [init, 2, 2]
    monkeypatch.setattr(cheb, "_FACTOR_BYTES", 0)
    other, other_pairs = counted(get_phase("hyp-radon"))
    uncached = [solve_bits(other, p=p) for _ in range(3)][-1]
    assert cached_for(other) == [] and other_pairs == 3 * [init, *grids]
    for got in (warm, uncached):
        assert np.array_equal(got[0], cold[0]) and got[1] == cold[1]


@pytest.mark.parametrize("budget", [6144, 9216, 1 << 20])
def test_cache_stays_within_its_budget(budget, no_factors, monkeypatch):
    # d = 1, q = 4: a column stage has factors on 3 grids x N pairs x 4
    # nodes, 3072 bytes at N = 16 and 1536 at N = 8; N = 16 makes three
    # stages, 9216 bytes, and N = 8 two (a_level 1 and 2)
    monkeypatch.setattr(cheb, "_FACTOR_BYTES", budget)
    phase = PhaseEvaluator("fourier", None, get_phase("fourier").fn)
    refs = [solve_bits(phase, N=n, d=1, seed=0)[0] for n in (16, 8)]
    for _ in range(3):
        for n, ref in zip((16, 8), refs):
            assert np.array_equal(solve_bits(phase, N=n, d=1, seed=0)[0], ref)
            sizes = [sum(f.nbytes for f in entry[4]) for entry in cheb._factors.values()]
            assert sizes == [entry[-1] for entry in cheb._factors.values()]
            assert cheb._factor_bytes == sum(sizes) <= budget
    kept = [(key[5], key[2]) for key in cheb._factors]  # (b_level, a_level)
    if budget == 6144:
        # nothing of N = 16, whose factors pass the budget
        assert kept == [(2, 1), (1, 2)]
    elif budget == 9216:
        # least recently used first out: N = 8's stages take the room of
        # N = 16's first
        assert kept == [(2, 2), (1, 3), (2, 1), (1, 2)]
    else:
        assert kept == [(3, 1), (2, 2), (1, 3), (2, 1), (1, 2)]


def test_least_recently_used_factors_go_first(no_factors, monkeypatch):
    monkeypatch.setattr(cheb, "_FACTOR_BYTES", 2 * 160)
    phase = get_phase("fourier")
    made = []

    def get(name):
        def grids():
            made.append(name)
            return [np.linspace(0.0, 1.0, 10)[:, None]]

        return cheb._stage_factors((name,), phase, np.zeros((1, 1)), grids, 160)

    get("a")
    get("b")
    assert cheb._factors == {}  # met once, not kept
    first = get("a")
    get("b")
    assert get("a") is first  # a hit, which makes "b" the oldest
    get("c")
    get("c")
    assert [key[1] for key in cheb._factors] == ["a", "c"]
    get("b")
    assert made == ["a", "b", "a", "b", "c", "c", "b"]


def test_only_the_last_keys_made_once_are_remembered(no_factors, monkeypatch):
    monkeypatch.setattr(cheb, "_SEEN_KEYS", 2)
    phase = get_phase("fourier")
    for _ in range(2):
        solve_bits(phase, N=16, d=1)
        assert [key[2] for key in cheb._seen] == [2, 3]


def test_cached_factors_are_read_only(no_factors):
    for _ in range(2):
        solve_bits(get_phase("fourier"), N=8, d=1)
    arrays = [f for entry in cheb._factors.values() for f in entry[4]]
    assert len(arrays) == 2 * 3  # two column stages' demod and two mods
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0


def test_nan_phase_raises_every_time_and_stores_nothing(no_factors):
    nan = PhaseEvaluator("nan", None, lambda x, y: np.full(np.broadcast_shapes(x.shape, y.shape)[:-1], np.nan))
    values = np.ones((2, 2, 4), dtype=complex)
    for _ in range(3):
        with pytest.raises(ValueError, match="NaN or inf"):
            column_stage(1, (0,), 1, (0,), values, nan, 2)
    assert len(cheb._factors) == 0 and cheb._factor_bytes == 0


class Unhashable:
    """A phase function that cannot be hashed, so neither can an evaluator
    that holds it."""

    __hash__ = None

    def __init__(self, scale):
        self.scale = scale

    def __call__(self, xs, ys):
        return self.scale * get_phase("fourier").fn(xs, ys)


def test_phases_of_one_name_do_not_share_factors(no_factors):
    one = PhaseEvaluator("same", None, Unhashable(1.0))
    two = PhaseEvaluator("same", None, Unhashable(2.0))
    first = [solve_bits(one, N=8, d=1)[0] for _ in range(2)][-1]
    second = [solve_bits(two, N=8, d=1)[0] for _ in range(2)][-1]
    assert cached_for(one) and cached_for(two)
    cheb._factors.clear()
    cheb._factor_bytes = 0
    assert np.array_equal(solve_bits(two, N=8, d=1)[0], second)
    assert not np.allclose(first, second)


def test_a_changed_phase_function_is_evaluated_again(no_factors):
    fn = Unhashable(1.0)
    phase = PhaseEvaluator("mutable", None, fn)
    for _ in range(2):
        solve_bits(phase, N=8, d=1)
    stale = [entry[4] for entry in cached_for(phase)]
    assert len(stale) == 2
    fn.scale = 2.0
    got = solve_bits(phase, N=8, d=1)[0]
    fresh = [entry[4] for entry in cached_for(phase)]
    assert len(fresh) == 2
    assert not any(np.array_equal(a, b) for old, new in zip(stale, fresh) for a, b in zip(old, new))
    cheb._factors.clear()
    cheb._factor_bytes = 0
    assert np.array_equal(got, solve_bits(PhaseEvaluator("cold", None, Unhashable(2.0)), N=8, d=1)[0])


# ---------------------------------------------------------------------------
# child matrices
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# PotentialField.evaluate: batched against the per-leaf oracle
# ---------------------------------------------------------------------------

FIELD_CASES = {
    "cheb-1d": (1, "fourier", 32, {"q": 6}),
    "cheb-2d": (2, "hyp-radon", 8, {"q": 4}),
    "cheb-3d": (3, "gen-radon", 4, {"q": 3}),
    "id-1d": (1, "fourier", 16, {"backend": "id"}),
    "id-2d": (2, "fourier", 8, {"backend": "id"}),
}


def solved_field(case, p=1, seed=71, sources=200):
    d, phase, N, kw = FIELD_CASES[case]
    rng = np.random.default_rng(seed)
    src = SourceSet(rng.uniform(size=(sources, d)), rng.normal(size=sources) + 1j * rng.normal(size=sources))
    if p == 1:
        return butterfly_apply(src, get_phase(phase), N, **kw)
    return simulate_parallel(src, get_phase(phase), N, p=p, **kw).field


def face_points(rng, d, N, n):
    """Random points with some coordinates on leaf faces, at 0.0 and at 1.0."""
    pts = rng.uniform(size=(n, d))
    on_face = rng.uniform(size=(n, d)) < 0.4
    pts[on_face] = rng.integers(0, N + 1, size=np.count_nonzero(on_face)) / N
    pts[0], pts[1] = 1.0, 0.0
    return pts


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("case", ["cheb-1d", "cheb-2d", "cheb-3d", "id-2d"])
def test_field_evaluate_matches_per_leaf_oracle(case, p):
    field = solved_field(case, p)
    q = FIELD_CASES[case][3].get("q")
    if q is not None:
        # a cheb field's skeleton is the root's grid in every leaf
        root_grid = grid_of(DyadicKey(0, (0,) * field.d), q)
        assert np.array_equal(field.skeleton, np.broadcast_to(root_grid, field.skeleton.shape))
    rng = np.random.default_rng(73)
    pts = face_points(rng, field.d, field.N, 300)
    got = field.evaluate(pts)
    expect = field_oracle(field, pts, q)
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


@pytest.mark.parametrize("case", sorted(FIELD_CASES))
def test_field_evaluate_is_batch_invariant(case, monkeypatch):
    # a point's value does not depend on the batch around it, nor on where
    # the chunks of the batch fall
    field = solved_field(case)
    rng = np.random.default_rng(79)
    pts = face_points(rng, field.d, field.N, 101)
    whole = field.evaluate(pts)
    singles = np.array([field.evaluate(pts[i : i + 1])[0] for i in range(len(pts))])
    assert np.array_equal(whole, singles)
    width = field.values.shape[-1]
    for rows in (1, 2, 7):
        monkeypatch.setattr(bfly.engine, "_EVAL_CHUNK", rows * width)
        assert np.array_equal(field.evaluate(pts), whole)


def random_field(rng, backend, d, N, q=3):
    """A field with unrelated random weights in every leaf, so a point
    evaluated in a neighbouring leaf gives a visibly different value."""
    phase = get_phase("fourier")
    if backend == "cheb":
        values = rng.normal(size=(N,) * d + (q**d,)) + 1j * rng.normal(size=(N,) * d + (q**d,))
        grid = grid_of(DyadicKey(0, (0,) * d), q)
        return PotentialField(phase, d, N, values, np.broadcast_to(grid, (N,) * d + grid.shape))
    width = 3
    ranks = rng.integers(0, width + 1, size=(N,) * d)
    values = rng.normal(size=(N,) * d + (width,)) + 1j * rng.normal(size=(N,) * d + (width,))
    values[np.arange(width) >= ranks[..., None]] = 0.0
    skeleton = rng.uniform(size=(N,) * d + (width, d))
    return PotentialField(phase, d, N, values, skeleton, ranks)


@pytest.mark.parametrize("backend", ["cheb", "id"])
@pytest.mark.parametrize("d", [1, 2])
def test_field_points_on_faces_use_the_binning_leaf(backend, d):
    # a point on a shared face belongs to the leaf with the larger
    # coordinate, and 1.0 to the last leaf, as sources are binned
    rng = np.random.default_rng(83)
    N = 4
    field = random_field(rng, backend, d, N)
    pts = face_points(rng, d, N, 200)
    leaves = leaf_coords(pts, 2)
    assert np.array_equal(leaves, np.minimum(np.floor(pts * N), N - 1))
    expect = field_oracle(field, pts, 3 if backend == "cheb" else None)
    assert np.max(np.abs(field.evaluate(pts) - expect)) <= 1e-14 * np.max(np.abs(field.values))


def test_evaluate_at_grid_node_closed_form():
    # weight 1 on root-grid node 2 of leaf (1,): at node 2 of that leaf's own
    # grid the field is the one kernel entry exp(i Phi(node, b_2))
    phase = get_phase("fourier")
    q, N = 4, 2
    root = grid_of(DyadicKey(0, (0,)), q)
    values = np.zeros((N, q), dtype=complex)
    values[1, 2] = 1.0
    field = PotentialField(phase, 1, N, values, np.broadcast_to(root, (N,) + root.shape))
    node = grid_of(DyadicKey(1, (1,)), q)[2]
    got = field.evaluate(node[None, :])[0]
    expect = np.exp(1j * phase(node, root[2]))
    assert got == pytest.approx(expect, abs=1e-14)


def test_evaluate_block_matches_per_pair_oracle():
    # one batch mixing points of many target leaves, each with its own
    # weights, against a sum over (point, root-grid node) pairs
    rng = np.random.default_rng(67)
    for d, q, phase in ((1, 6, get_phase("fourier")), (2, 4, get_phase("hyp-radon")), (3, 3, get_phase("gen-radon"))):
        N = 4
        root = grid_of(DyadicKey(0, (0,) * d), q)
        values = rng.normal(size=(N,) * d + (q**d,)) + 1j * rng.normal(size=(N,) * d + (q**d,))
        field = PotentialField(phase, d, N, values, np.broadcast_to(root, (N,) * d + root.shape))
        pts = rng.uniform(size=(60, d))
        got = field.evaluate(pts)
        coords = leaf_coords(pts, 2)
        for i in range(60):
            w = values[tuple(int(c) for c in coords[i])]
            expect = sum(np.exp(1j * phase(pts[i], root[t])) * w[t] for t in range(q**d))
            assert abs(got[i] - expect) <= 1e-14 * np.max(np.abs(w))


def test_field_one_hot_weight_is_one_kernel_entry():
    # weight 1 on node t of the root grid in one leaf, 0 elsewhere: the
    # field in that leaf is K(x, b_t), and exactly 0 in every other leaf
    phase = get_phase("hyp-radon")
    q, N = 4, 4
    grid = grid_of(DyadicKey(0, (0, 0)), q)
    values = np.zeros((N, N, q * q), dtype=complex)
    values[1, 2, 5] = 1.0
    field = PotentialField(phase, 2, N, values, np.broadcast_to(grid, (N, N) + grid.shape))
    pts = np.array([[0.3, 0.6], [0.25, 0.5], [0.45, 0.7], [0.5, 0.6], [0.3, 0.75]])
    out = field.evaluate(pts)
    expect = np.exp(1j * phase(pts[:3], grid[5]))
    assert np.max(np.abs(out[:3] - expect)) <= 1e-15
    assert np.all(out[3:] == 0)


@pytest.mark.parametrize("backend", ["cheb", "id"])
def test_field_empty_sources_evaluate_to_exact_zeros(backend):
    rng = np.random.default_rng(89)
    field = butterfly_apply(SourceSet(np.zeros((0, 2)), np.zeros(0)), get_phase("fourier"), 8, q=3, backend=backend)
    assert all(not np.any(field.weight_vector(k)) for k in field.target_keys())
    out = field.evaluate(face_points(rng, 2, 8, 50))
    assert out.shape == (50,) and np.all(out == 0)


def test_field_rank_zero_id_leaves_evaluate_to_exact_zeros():
    rng = np.random.default_rng(97)
    field = random_field(rng, "id", 2, 4)
    field.ranks[0, 0], field.ranks[3, 1] = 0, 0
    field.values[0, 0], field.values[3, 1] = 0.0, 0.0
    assert field.weight_vector(DyadicKey(2, (0, 0))).shape == (0,)
    pts = np.array([[0.1, 0.2], [0.0, 0.0], [0.8, 0.3], [1.0, 0.25], [0.5, 0.5]])
    out = field.evaluate(pts)
    assert np.all(out[:4] == 0)
    assert np.max(np.abs(out - field_oracle(field, pts))) <= 1e-14 * np.max(np.abs(field.values))
