"""Chebyshev grids, Lagrange interpolation, the block weight operations
(initialization, column and row stages, middle switch, evaluation) and the
batched evaluation of a PotentialField, checked against direct kernel
summation and against per-pair and per-leaf oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import bfly.chebyshev
import bfly.engine
from bfly.chebyshev import (
    _child_matrices,
    _child_matrices_1d,
    _reference_nodes,
    _stage_matrices,
    _tensor_basis,
    cached_matrix_bytes,
    column_stage,
    evaluate_block,
    grid_points,
    init_source_weights,
    middle_switch,
    row_stage,
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
# and one pair's switch and leaf initialization, box by box.


def column_contribution(a_c, b_p, b_child, values, phase, q):
    xc = center_of(a_c)
    v = np.exp(1j * phase(xc, grid_of(b_child, q))) * values
    w = _child_matrices(q, a_c.dim)[child_index(b_child)] @ v
    return np.exp(-1j * phase(xc, grid_of(b_p, q))) * w


def row_contribution(a_c, b_p, b_child, values, phase, q):
    new_pts = grid_of(a_c, q)
    w = _child_matrices(q, a_c.dim)[child_index(a_c)].T @ values
    shift = phase(new_pts, center_of(b_child)) - phase(new_pts, center_of(b_p))
    return np.exp(1j * shift) * w


def switch_oracle(a, b, values, phase, q):
    a_pts = grid_of(a, q)
    sampled = kernel_matrix(phase, a_pts, grid_of(b, q)) @ values
    return np.exp(-1j * phase(a_pts, center_of(b))) * sampled


def init_oracle(b, positions, strengths, phase, q):
    x_root = center_of(DyadicKey(0, (0,) * b.dim))
    moments = lagrange_of(b, q, positions).T @ (np.exp(1j * phase(x_root, positions)) * strengths)
    return np.exp(-1j * phase(x_root, grid_of(b, q))) * moments


def pair_block(a, b, values):
    """One pair's weights laid out as a block of one target and one source box."""
    return values.reshape((1,) * (2 * a.dim) + (-1,))


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
    """init_source_weights on the single leaf box b."""
    positions = np.asarray(positions, dtype=float).reshape(-1, b.dim)
    leaves = np.tile(np.asarray(b.coords), (positions.shape[0], 1))
    out = init_source_weights(b.level, b.coords, (1,) * b.dim, positions, strengths, leaves, phase, q, led)
    return out.reshape(-1)


def switch(a, b, values, phase, q, led=None):
    return middle_switch(a.level, a.coords, b.level, b.coords, pair_block(a, b, values), phase, q, led).reshape(-1)


def evaluate_oracle(a, b, values, pts, phase, q, check_inside=False):
    """Row weights of the one pair (A, B) at points of A, box by box:
    f(x) = exp(i*Phi(x, y_B)) sum_t L_t(x) delta_t."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if check_inside:
        lower, width = box_of(a)
        lo = np.asarray(lower)
        hi = lo + np.asarray(width)
        inside_hi = (pts < hi) | ((hi == 1.0) & (pts <= 1.0))
        if not np.all((pts >= lo) & inside_hi):
            raise ValueError("evaluation point outside the pair's target box")
    vals = lagrange_of(a, q, pts) @ values
    return np.exp(1j * phase(pts, center_of(b))) * vals


def evaluate_pair(a, b, values, pts, phase, q):
    """evaluate_block on points that all lie in the target box of one pair."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = pts.shape[0]
    coords = np.tile(np.asarray(a.coords), (n, 1))
    return evaluate_block(a.level, coords, center_of(b), np.tile(values, (n, 1)), pts, phase, q)


def field_oracle(field, pts):
    """A field evaluated leaf by leaf, through the per-pair oracle (cheb) or
    the kernel against the leaf's skeleton points (id)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    leaves = leaf_coords(pts, field.level)
    root = DyadicKey(0, (0,) * field.d)
    out = np.zeros(len(pts), dtype=complex)
    for coords in {tuple(int(c) for c in row) for row in leaves}:
        key = DyadicKey(field.level, coords)
        sel = np.all(leaves == coords, axis=1)
        w = field.weight_vector(key)
        if field.backend == "cheb":
            out[sel] = evaluate_oracle(key, root, w, pts[sel], field.phase, field.q, check_inside=True)
        else:
            out[sel] = kernel_matrix(field.phase, pts[sel], field.skeleton[coords][: len(w)]) @ w
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
    column, row = _stage_matrices.__wrapped__(q, d)
    assert np.array_equal(column, np.transpose(m, (0, 2, 1)).astype(complex))
    offsets = itertools.product((0, 1), repeat=d)
    assert np.array_equal(row, np.concatenate([m[offset_index(o)] for o in offsets], axis=1).astype(complex))


@pytest.mark.parametrize("q,d", [(2, 1), (7, 1), (3, 2), (5, 2), (2, 3), (3, 3)])
def test_cached_matrix_bytes_counts_the_cached_matrices(q, d):
    column, row = _stage_matrices.__wrapped__(q, d)
    assert cached_matrix_bytes(q, d) == _child_matrices.__wrapped__(q, d).nbytes + column.nbytes + row.nbytes


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
    assert np.array_equal(w, np.zeros(4, dtype=complex))


def test_init_node_source_flat_phase_one_hot():
    b = DyadicKey(2, (1,))
    g = 2.0 - 1.0j
    w = leaf_init(b, grid_of(b, 4)[[2]], np.array([g]), FLAT, 4)
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
    w = leaf_init(b, pos, g, phase, 8)
    x = rng.uniform(size=(30, 1))
    direct = kernel_matrix(phase, x, pos) @ g
    approx = column_potential(b, w, x, phase, 8)
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
    led = ledger()
    b = DyadicKey(1, (0,))
    pos = np.array([[0.1], [0.2], [0.3]])
    leaf_init(b, pos, np.ones(3, dtype=complex), FLAT, 4, led)
    assert led.flops == 2 * 3 * 4 + 3 + 4
    # a block charges each occupied box alone; empty boxes cost nothing
    led = ledger()
    init_source_weights(2, (0,), (4,), np.array([[0.1], [0.2], [0.8]]), np.ones(3, dtype=complex),
                        np.array([[0], [0], [3]]), FLAT, 4, led)
    assert led.flops == (2 * 2 * 4 + 2 + 4) + (2 * 1 * 4 + 1 + 4)


def test_init_block_matches_per_leaf_oracle():
    rng = np.random.default_rng(23)
    phase = get_phase("fourier")
    for d, level, q in ((1, 3, 5), (2, 2, 3)):
        pos = rng.uniform(size=(60, d))
        g = rng.normal(size=60) + 1j * rng.normal(size=60)
        leaves = np.minimum((pos * (1 << level)).astype(int), (1 << level) - 1)
        order = np.argsort(np.ravel_multi_index(tuple(leaves.T), (1 << level,) * d), kind="stable")
        out = init_source_weights(level, (0,) * d, (1 << level,) * d, pos[order], g[order], leaves[order], phase, q)
        for coords in itertools.product(range(1 << level), repeat=d):
            sel = np.all(leaves == coords, axis=1)
            expect = init_oracle(DyadicKey(level, coords), pos[sel], g[sel], phase, q)
            assert np.allclose(out[coords], expect, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(expect))))


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
    for stage in (column_stage, row_stage):
        led = ledger()
        translate(stage, DyadicKey(1, (1,)), DyadicKey(1, (0,)), [np.ones(q, dtype=complex)] * 2, get_phase("fourier"), q, led)
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
    for stage, oracle in ((column_stage, column_contribution), (row_stage, row_contribution)):
        out = stage(level, (0,) * d, L - level, (0,) * d, values, phase, q)
        assert out.shape == (2 << level,) * d + (1 << (L - level - 1),) * d + (r,)
        scale = np.max(np.abs(out))
        for ac in itertools.product(range(2 << level), repeat=d):
            for bp in itertools.product(range(1 << (L - level - 1)), repeat=d):
                a_c, b_p = DyadicKey(level + 1, ac), DyadicKey(L - level - 1, bp)
                a = parent(a_c).coords
                expect = sum(oracle(a_c, b_p, b_n, values[a + b_n.coords], phase, q) for b_n in children(b_p))
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


def check_block_stages(d, L, level, q, blocks):
    """Each block (a_lo, a_shape, b_lo, b_shape) of the pairs of a level must
    give bit for bit the rows of the whole-level switch and stages over the
    children it holds: that is what lets p = 1 and every simulated rank
    reproduce butterfly_apply. The whole-level reference zeroes the other
    children, whose exact-zero contributions leave the sums unchanged."""
    rng = np.random.default_rng(53 + d + level)
    phase = get_phase("fourier")
    r = q**d
    a_n, b_n = 1 << level, 1 << (L - level)
    values = rng.normal(size=(a_n,) * d + (b_n,) * d + (r,)) + 1j * rng.normal(size=(a_n,) * d + (b_n,) * d + (r,))
    switched = middle_switch(level, (0,) * d, L - level, (0,) * d, values, phase, q)
    whole = {}  # (stage, parity held per dimension, None for both) -> whole-level output
    for a_lo, a_shape, b_lo, b_shape in blocks:
        index = tuple(slice(lo, lo + n) for lo, n in zip(a_lo + b_lo, a_shape + b_shape))
        block = values[index]
        got = middle_switch(level, a_lo, L - level, b_lo, block, phase, q)
        assert np.array_equal(got, switched[index]), ("switch", a_lo, a_shape, b_lo, b_shape)
        held = tuple(None if n > 1 else lo % 2 for lo, n in zip(b_lo, b_shape))
        bp_lo, bp_shape = parent_block(b_lo, b_shape)
        out_index = tuple(slice(2 * lo, 2 * (lo + n)) for lo, n in zip(a_lo, a_shape))
        out_index += tuple(slice(lo, lo + n) for lo, n in zip(bp_lo, bp_shape))
        for stage in (column_stage, row_stage):
            if (stage, held) not in whole:
                masked = values.copy()
                for k, h in enumerate(held):
                    if h is not None:
                        masked[(slice(None),) * (d + k) + (slice(1 - h, None, 2),)] = 0.0
                whole[(stage, held)] = stage(level, (0,) * d, L - level, (0,) * d, masked, phase, q)
            got = stage(level, a_lo, L - level, b_lo, block, phase, q)
            assert np.array_equal(got, whole[(stage, held)][out_index]), (stage.__name__, a_lo, a_shape, b_lo, b_shape)


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
        assert np.array_equal(got, whole[tuple(slice(a, a + n) for a, n in runs)])


# ---------------------------------------------------------------------------
# middle switch
# ---------------------------------------------------------------------------


def make_column_block(a, b, pos, g, phase, q):
    """Column weights for an arbitrary pair, straight from the definition."""
    xa = np.asarray(center_of(a))
    mod = np.exp(1j * phase(xa, pos))
    moments = lagrange_of(b, q, pos).T @ (mod * g)
    demod = np.exp(-1j * phase(xa, grid_of(b, q)))
    return demod * moments


def test_middle_switch_zero():
    out = switch(DyadicKey(1, (0,)), DyadicKey(1, (1,)), np.zeros(3, dtype=complex), get_phase("fourier"), 3)
    assert np.allclose(out, 0.0)


def test_middle_switch_rank_one_is_identity():
    # with one node per dimension the kernel sample and the demodulation are
    # both taken at the same centers and cancel exactly
    w = np.array([1.5 - 0.5j])
    out = switch(DyadicKey(1, (1,)), DyadicKey(1, (0,)), w, get_phase("fourier"), 1)
    assert np.allclose(out, w, atol=1e-15)


def test_middle_switch_flop_count():
    led = ledger()
    switch(DyadicKey(1, (0,)), DyadicKey(1, (1,)), np.ones(4, dtype=complex), get_phase("fourier"), 4, led)
    assert led.flops == 2 * 16 + 2 * 4


def test_middle_switch_matches_per_pair_oracle():
    rng = np.random.default_rng(57)
    phase = get_phase("hyp-radon")
    q, r = 3, 9
    values = rng.normal(size=(4, 4, 2, 2, r)) + 1j * rng.normal(size=(4, 4, 2, 2, r))
    out = middle_switch(2, (0, 0), 1, (0, 0), values, phase, q)
    for a in itertools.product(range(4), repeat=2):
        for b in itertools.product(range(2), repeat=2):
            expect = switch_oracle(DyadicKey(2, a), DyadicKey(1, b), values[a + b], phase, q)
            assert np.max(np.abs(out[a + b] - expect)) <= 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("name, d, N, q", [("fourier", 1, 32, 4), ("hyp-radon", 2, 8, 4), ("gen-radon", 3, 8, 2)])
def test_switch_chunking_keeps_bits_and_ledger(name, d, N, q, monkeypatch):
    # the switch builds at most _SWITCH_CHUNK kernel entries per phase call;
    # where the chunks fall, even inside one target box's row of pairs,
    # changes no bit of the weights and no count of the ledger. Odd log2 N
    # gives the switch more target than source boxes.
    rng = np.random.default_rng(59)
    n = 2 * N**d
    s = SourceSet(rng.uniform(size=(n, d)), rng.normal(size=n) + 1j * rng.normal(size=n))
    phase = get_phase(name)
    whole = butterfly_apply(s, phase, N, q=q)
    r = q**d
    L = N.bit_length() - 1
    row = 1 << ((L - (L + 1) // 2) * d)  # source boxes per target box at the switch
    assert N**d * r * r <= bfly.chebyshev._SWITCH_CHUNK  # the default is one call
    for chunk in (1, 3 * r * r, (row - 1) * r * r):
        monkeypatch.setattr(bfly.chebyshev, "_SWITCH_CHUNK", chunk)
        field = butterfly_apply(s, phase, N, q=q)
        assert np.array_equal(field.values, whole.values)
        assert field.ledger == whole.ledger


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
    row = switch(a, b, col, phase, q)
    f_row = evaluate_pair(a, b, row, x, phase, q)
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
    root_nodes = grid_of(a, q)[:, 0]

    def p(y):
        return y**4 - 0.3 * y**2 + 0.1

    vals = [p(root_nodes).astype(complex), np.zeros(q, dtype=complex)]
    out = translate(row_stage, a_c, b_p, vals, FLAT, q)
    fine_nodes = grid_of(a_c, q)[:, 0]
    assert np.allclose(out, p(fine_nodes), atol=1e-12)


def test_evaluate_at_grid_node_closed_form():
    phase = get_phase("fourier")
    q = 4
    a = DyadicKey(1, (1,))
    b = DyadicKey(1, (0,))
    vals = np.zeros(q, dtype=complex)
    vals[2] = 1.0
    node = grid_of(a, q)[2]
    got = evaluate_pair(a, b, vals, node[None, :], phase, q)[0]
    yb = np.asarray(center_of(b))
    expect = np.exp(1j * phase(node, yb))
    assert got == pytest.approx(expect, abs=1e-14)


def test_evaluate_block_matches_per_pair_oracle():
    # one batch mixing points of many target boxes, each with its own weights
    rng = np.random.default_rng(67)
    for d, q, phase in ((1, 6, get_phase("fourier")), (2, 4, get_phase("hyp-radon")), (3, 3, get_phase("gen-radon"))):
        level, b = 2, DyadicKey(1, (1,) * d)
        pts = rng.uniform(size=(60, d))
        coords = leaf_coords(pts, level)
        values = rng.normal(size=(60, q**d)) + 1j * rng.normal(size=(60, q**d))
        got = evaluate_block(level, coords, center_of(b), values, pts, phase, q)
        for i in range(60):
            a = DyadicKey(level, tuple(int(c) for c in coords[i]))
            expect = evaluate_oracle(a, b, values[i], pts[i : i + 1], phase, q)[0]
            assert abs(got[i] - expect) <= 1e-14 * np.max(np.abs(values[i]))


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
    rng = np.random.default_rng(73)
    pts = face_points(rng, field.d, field.N, 300)
    got = field.evaluate(pts)
    expect = field_oracle(field, pts)
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
        return PotentialField(phase, d, N, "cheb", q, values)
    width = 3
    ranks = rng.integers(0, width + 1, size=(N,) * d)
    values = rng.normal(size=(N,) * d + (width,)) + 1j * rng.normal(size=(N,) * d + (width,))
    values[np.arange(width) >= ranks[..., None]] = 0.0
    skeleton = rng.uniform(size=(N,) * d + (width, d))
    return PotentialField(phase, d, N, "id", None, values, ranks, skeleton)


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
    assert np.max(np.abs(field.evaluate(pts) - field_oracle(field, pts))) <= 1e-14 * np.max(np.abs(field.values))


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
