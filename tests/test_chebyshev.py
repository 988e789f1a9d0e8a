"""Chebyshev grids, Lagrange interpolation, the block weight operations
(initialization onto the level-1 pairs, which runs the child sum of stage 0,
column stages) and the batched evaluation of a PotentialField, checked against
direct kernel summation and against per-pair and per-leaf oracles."""

from __future__ import annotations

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

import bfly.chebyshev as cheb
import bfly.engine
from bfly.chebyshev import (
    _column_contribution,
    _reference_nodes,
    _tensor_basis,
    column_stage,
    grid_points,
    init_source_weights,
)
from bfly.costs import CostLedger, CostParams
from bfly.engine import PotentialField, SourceSet, butterfly_apply
from bfly.geometry import DyadicKey, leaf_coords, offset_index, parent_block, present_children
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
    lower/width at pts: (len(pts), q^d), the transpose of _tensor_basis."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return _tensor_basis(q, np.repeat(np.asarray(lower, dtype=float)[:, None], len(pts), axis=1), width, pts).T


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
    w = per_box_child_matrices(q, a_c.dim)[child_index(b_child)] @ v
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
    values = np.zeros((q**d,) + (1,) * d + (2,) * d, dtype=complex)
    for b_n, v in zip(children(b_p), child_values):
        values[(slice(None),) + (0,) * d + tuple(c & 1 for c in b_n.coords)] = v
    out = stage(a.level, a.coords, b_p.level + 1, tuple(2 * c for c in b_p.coords), values, phase, q, led)
    return out[(slice(None),) + tuple(c & 1 for c in a_c.coords) + (0,) * d]


def leaf_init(b, positions, strengths, phase, q, led=None):
    """init_source_weights on the single leaf box b, its parent's only
    child in the block: one row per target box."""
    out = init_source_weights(b.level, b.coords, (1,) * b.dim, positions, strengths, phase, q, led)
    return out.reshape(q**b.dim, len(first_targets(b.level, b.dim))).T


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
# with, kept here as the reference they must reproduce bit for bit: points
# first, the basis's denominator summed in node order as chebyshev._basis_1d
# sums it.


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
            basis = terms / np.cumsum(terms, axis=1)[:, -1:]
        rows = np.any(hit, axis=1)
        if np.any(rows):
            basis[rows] = 0.0
            basis[hit] = 1.0
        acc = (acc[:, :, None] * basis[:, None, :]).reshape(n, -1)
    return acc


@functools.lru_cache(maxsize=None)
def per_box_child_matrices(q, d):
    """M[n][t', t]: basis t' of the unit box at node t of the grid of child
    n. Each M[n] is Fortran-ordered, as chebyshev._child_matrices_1d's are:
    BLAS rounds a product by another kernel for a C-ordered left operand."""
    out = np.empty((1 << d, q**d, q**d)).swapaxes(1, 2)
    for n in range(1 << d):
        lower = tuple(0.5 * ((n >> k) & 1) for k in range(d))
        out[n] = per_box_basis(q, (0.0,) * d, (1.0,) * d, per_box_grid(q, lower, (0.5,) * d)).T
    return out


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
    # A stage's child contribution, with a unit modulation, is child n's dense
    # re-interpolation matrix applied to every pair's weights. The stage
    # applies it as the 1-D child matrices one dimension at a time: the
    # same bits at d = 1, the same sums in another order past it.
    rng = np.random.default_rng(q + 17 * d)
    r = q**d
    shape = (r,) + (1,) * d + (3,) * d  # one target box, 3^d source boxes
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ones = np.ones((r,) + (2,) * d + (3,) * d, dtype=complex)
    for n, m in enumerate(per_box_child_matrices(q, d)):
        offset = tuple((n >> k) & 1 for k in range(d))
        expect = m @ values.reshape(r, -1)
        got = _column_contribution(offset, values, ones, q)
        for child in np.ndindex(*(2,) * d):  # each child A_c of the target box gets the same weights
            each = got[(slice(None),) + child].reshape(r, -1)
            if d == 1:
                assert np.array_equal(each, expect), (n, child)
            else:
                assert np.max(np.abs(each - expect)) <= 1e-13 * np.max(np.abs(expect)), (n, child)


def test_child_matrices_are_fortran_ordered():
    # the column stage's bits depend on the 1-D child matrices' memory order
    # (test_large_block_stage_rows_are_bit_stable): each half's matrix is
    # built Fortran-ordered, whatever order _basis_1d returns
    for q in range(1, 17):
        m = cheb._child_matrices_1d(q)
        assert m.shape == (2, q, q)
        assert all(half.flags.f_contiguous for half in m), q


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
    # the block of the two lower leaves of level 2 ends at 0.5
    with pytest.raises(ValueError, match="outside"):
        init_source_weights(2, (0,), (2,), np.array([[0.1], [0.6]]), np.ones(2, dtype=complex), FLAT, 4)


@pytest.mark.parametrize("team_bits", [0, 1])
@pytest.mark.parametrize("d,level,q,name", [(1, 4, 5, "fourier"), (2, 3, 3, "hyp-radon"), (3, 2, 2, "gen-radon")])
def test_init_takes_its_sources_in_any_leaf_order(d, level, q, name, team_bits):
    # the sources shuffled across leaves, each leaf's own kept in their
    # order, give the bits and the ledger of the same sources sorted by leaf
    rng = np.random.default_rng(167 + d)
    n = 50 << d
    pos = rng.uniform(size=(n, d))
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    flat = np.ravel_multi_index(tuple(leaf_coords(pos, level).T), (1 << level,) * d)
    by_leaf = np.argsort(flat, kind="stable")
    # each leaf's sources, in input order, into the slots a random
    # permutation gives that leaf
    mixed = rng.permutation(n)
    mixed[np.argsort(flat[mixed], kind="stable")] = by_leaf
    assert not np.array_equal(flat[mixed], flat[by_leaf])
    phase = get_phase(name)
    runs = []
    for order in (by_leaf, mixed):
        led = ledger()
        out = init_source_weights(level, (0,) * d, (1 << level,) * d, pos[order], g[order], phase, q, led,
                                  team_bits=team_bits)
        runs.append((out, led))
    (want, want_led), (got, got_led) = runs
    assert np.array_equal(got, want)
    assert got_led == want_led


def test_init_flop_count():
    # per occupied box and per target box: 2r + 1 per source, r for the box;
    # and stage 0's child sum, r per target box for every leaf, 2r here
    led = ledger()
    b = DyadicKey(1, (0,))
    pos = np.array([[0.1], [0.2], [0.3]])
    leaf_init(b, pos, np.ones(3, dtype=complex), FLAT, 4, led)
    assert led.flops == 2 * (2 * 3 * 4 + 3 + 4) + 2 * 4
    # a block charges each occupied box alone; empty boxes cost only the
    # child sum
    led = ledger()
    init_source_weights(2, (0,), (4,), np.array([[0.1], [0.2], [0.8]]), np.ones(3, dtype=complex), FLAT, 4, led)
    assert led.flops == 2 * ((2 * 2 * 4 + 2 + 4) + (2 * 1 * 4 + 1 + 4)) + 4 * 2 * 4
    led = ledger()
    init_source_weights(2, (0,), (4,), np.zeros((0, 1)), np.zeros(0, dtype=complex), FLAT, 4, led)
    assert led.flops == 4 * 2 * 4
    # a one-leaf tree has one target box and no stage 0
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
        out = init_source_weights(level, (0,) * d, (1 << level,) * d, pos, g, phase, q)
        targets = first_targets(level, d)
        a = min(level, 1)
        assert out.shape == (q**d,) + (1 << a,) * d + (1 << (level - a),) * d
        # each pair (A, P) sums what the leaves inside P put on it
        expect = np.zeros_like(out)
        for coords in itertools.product(range(1 << level), repeat=d):
            sel = np.all(leaves == coords, axis=1)
            rows = init_oracle(DyadicKey(level, coords), pos[sel], g[sel], phase, q)
            for t, row in zip(targets, rows):
                expect[(slice(None),) + t.coords + tuple(c >> a for c in coords)] += row
        for index in np.ndindex(*out.shape[1:]):
            got, row = out[(slice(None),) + index], expect[(slice(None),) + index]
            assert np.allclose(got, row, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(row))))


# ---------------------------------------------------------------------------
# stage 0: the init's child sum
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,level,q", [(1, 3, 6), (2, 2, 3), (3, 1, 2)])
def test_child_sum_stage_gives_the_column_weights_of_level_1(d, level, q):
    # the init adds the leaves' shares of each parent up to the parent's
    # sources interpolated in one step: the column weights of the level-1
    # pairs
    rng = np.random.default_rng(25 + d)
    phase = get_phase("fourier")
    n = 20 * 2**d
    pos = rng.uniform(size=(n, d))
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    leaves = np.minimum((pos * (1 << level)).astype(int), (1 << level) - 1)
    out = init_source_weights(level, (0,) * d, (1 << level,) * d, pos, g, phase, q)
    assert out.shape == (q**d,) + (2,) * d + (1 << (level - 1),) * d
    for a in first_targets(level, d):
        for bp in itertools.product(range(1 << (level - 1)), repeat=d):
            sel = np.all(leaves // 2 == bp, axis=1)
            expect = column_weights(a, DyadicKey(level - 1, bp), pos[sel], g[sel], phase, q)
            assert np.max(np.abs(out[(slice(None),) + a.coords + bp] - expect)) <= 1e-13 * max(1.0, np.max(np.abs(expect)))


def test_child_sum_stage_sums_in_canonical_order_and_counts_flops():
    # With no phase and q = 1 a leaf's weight is the sum of its strengths,
    # exactly, so the four leaves of parent (1, 0) put 1e16, 1, -1e16, 1 on
    # it at offsets (0,0), (0,1), (1,0), (1,1). Rounding tells the add order
    # apart: 1e16 + 1 rounds back to 1e16.
    pos = np.array([[0.6, 0.1], [0.6, 0.4], [0.9, 0.1], [0.9, 0.4]])
    g = np.array([1e16, 1.0, -1e16, 1.0], dtype=complex)
    led = ledger()
    out = init_source_weights(2, (0, 0), (4, 4), pos, g, FLAT, 1, led)
    assert out.shape == (1, 2, 2, 2, 2)
    assert np.all(out[0, :, :, 1, 0] == 1.0)  # ((1e16 + 1) - 1e16) + 1 for every target box
    assert np.count_nonzero(out) == 4
    # the moments of each occupied leaf per target box, and r = 1 per
    # target box for every one of the 16 leaves
    assert led.flops == 4 * 4 * (2 + 1 + 1) + 16 * 4
    # a team adds each member's children apart, then the members in
    # ascending order. With one team bit the members hold offsets (0, *)
    # and (1, *): 1e16, 1, 1, 1 sum to 1e16 + (1 + 1) there, the
    # canonical order loses every 1
    g1 = np.array([1e16, 1.0, 1.0, 1.0], dtype=complex)
    alone = init_source_weights(2, (0, 0), (4, 4), pos, g1, FLAT, 1)
    assert np.all(alone[0, :, :, 1, 0] == 1e16)
    halves = init_source_weights(2, (0, 0), (4, 4), pos, g1, FLAT, 1, team_bits=1)
    assert np.all(halves[0, :, :, 1, 0] == 1e16 + 2)
    # two team bits, a member per child: the canonical order again
    assert np.array_equal(init_source_weights(2, (0, 0), (4, 4), pos, g, FLAT, 1, team_bits=2), out)


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
    values = np.ones((9, 2, 2, 4, 4), dtype=complex)
    column_stage(1, (0, 0), 2, (0, 0), values, get_phase("fourier"), 3, led)
    # the re-interpolation one dimension at a time, 2 d q^(d+1) per child
    assert led.flops == 64 * 4 * (2 * 2 * 27 + 3 * 9)


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
    values = rng.normal(size=(r,) + (1 << level,) * d + (1 << (L - level),) * d) * (1 + 1j)
    out = column_stage(level, (0,) * d, L - level, (0,) * d, values, phase, q)
    assert out.shape == (r,) + (2 << level,) * d + (1 << (L - level - 1),) * d
    scale = np.max(np.abs(out))
    for ac in itertools.product(range(2 << level), repeat=d):
        for bp in itertools.product(range(1 << (L - level - 1)), repeat=d):
            a_c, b_p = DyadicKey(level + 1, ac), DyadicKey(L - level - 1, bp)
            a = parent(a_c).coords
            expect = sum(
                column_contribution(a_c, b_p, b_n, values[(slice(None),) + a + b_n.coords], phase, q)
                for b_n in children(b_p)
            )
            assert np.max(np.abs(out[(slice(None),) + ac + bp] - expect)) <= 1e-13 * scale


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
            masked[(slice(None),) * (1 + d + k) + (slice(1 - h, None, 2),)] = 0.0
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
    shape = (r,) + (a_n,) * d + (b_n,) * d
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    whole = {}  # parity held per dimension, None for both -> whole-level output
    for a_lo, a_shape, b_lo, b_shape in blocks:
        index = (slice(None),) + tuple(slice(lo, lo + n) for lo, n in zip(a_lo + b_lo, a_shape + b_shape))
        held = tuple(None if n > 1 else lo % 2 for lo, n in zip(b_lo, b_shape))
        bp_lo, bp_shape = parent_block(b_lo, b_shape)
        out_index = (slice(None),) + tuple(slice(2 * lo, 2 * (lo + n)) for lo, n in zip(a_lo, a_shape))
        out_index += tuple(slice(lo, lo + n) for lo, n in zip(bp_lo, bp_shape))
        if held not in whole:
            whole[held] = column_stage(level, (0,) * d, L - level, (0,) * d, masked_children(values, d, held), phase, q)
        got = column_stage(level, a_lo, L - level, b_lo, values[index], phase, q)
        assert np.array_equal(got, whole[held][out_index]), (a_lo, a_shape, b_lo, b_shape)


@pytest.mark.parametrize("d,L,level,q", [(1, 4, 1, 4), (1, 4, 3, 3), (2, 3, 1, 3), (2, 3, 2, 2), (3, 2, 1, 3)])
def test_block_stage_rows_are_bit_stable(d, L, level, q):
    # every aligned block, down to one pair
    check_block_stages(d, L, level, q, sub_blocks(d, 1 << level, 1 << (L - level)))


def test_large_block_stage_rows_are_bit_stable():
    # A whole level against a few small blocks of it. OpenBLAS picks another
    # kernel for a C-ordered left operand on a narrow block of pairs, so the
    # blocks keep the whole level's bits only because the 1-D child matrices
    # are Fortran-ordered (test_child_matrices_are_fortran_ordered).
    check_block_stages(1, 11, 1, 16, [((0,), (1,), (0,), (2,)), ((1,), (1,), (6,), (1,)), ((0,), (2,), (512,), (512,))])


def test_init_block_rows_are_bit_stable():
    # blocks at least two leaves wide hold every child of their parents:
    # they give the rows of the whole level
    rng = np.random.default_rng(59)
    phase = get_phase("fourier")
    d, level, q = 2, 3, 3
    pos = rng.uniform(size=(300, d))
    g = rng.normal(size=300) + 1j * rng.normal(size=300)
    leaves = np.minimum((pos * 8).astype(int), 7)
    whole = init_source_weights(level, (0, 0), (8, 8), pos, g, phase, q)
    for runs in itertools.product(aligned_blocks(8)[8:], repeat=d):
        lo = np.array([a for a, _ in runs])
        shape = tuple(n for _, n in runs)
        inside = np.all((leaves >= lo) & (leaves < lo + shape), axis=1)
        got = init_source_weights(level, tuple(lo), shape, pos[inside], g[inside], phase, q)
        assert np.array_equal(got, whole[(slice(None),) * (d + 1) + tuple(slice(a // 2, (a + n) // 2) for a, n in runs)])


def clustered_sources(rng, d, n, crowd):
    """n sources in the lower 0.6 of dimension 0, so the upper leaves stay
    empty, with `crowd` of them inside one leaf near 0.3."""
    pos = rng.uniform(size=(n, d))
    pos[:, 0] *= 0.6
    pos[:crowd] = 0.3 + 0.01 * rng.uniform(size=(crowd, d))
    return SourceSet(pos, rng.normal(size=n) + 1j * rng.normal(size=n))


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("d,N,q,name", [(1, 16, 4, "fourier"), (2, 8, 3, "hyp-radon"), (3, 4, 2, "gen-radon")])
def test_init_chunk_keeps_the_bits(d, N, q, name, p, monkeypatch):
    # windows of one parent family, of three, the default, and one window
    # over the whole level, whose bits and ledgers the others must give; the
    # crowded leaf holds 40 sources and the upper leaves none
    r, T = q**d, 2**d
    src = clustered_sources(np.random.default_rng(113 + d), d, 200, 40)
    phase = get_phase(name)

    def solve(chunk):
        monkeypatch.setattr(cheb, "_INIT_CHUNK", chunk)
        res = simulate_parallel(src, phase, N, p, q=q)
        return res.field.values, [(led.flops, led.messages, led.entries_sent) for led in res.ledgers]

    values, ledgers = solve(1 << 30)
    for chunk in (1, 3 * r * T * T, 1 << 15):
        got, got_ledgers = solve(chunk)
        assert np.array_equal(got, values)
        assert got_ledgers == ledgers


@pytest.mark.parametrize("k", [1, 40])
@pytest.mark.parametrize("d,N,q,name", [(1, 16, 4, "fourier"), (2, 8, 3, "hyp-radon"), (3, 4, 2, "gen-radon")])
def test_init_leaf_alone_matches_its_same_count_batch(d, N, q, name, k):
    # five leaves of k sources each, in five parent families whose other
    # children are empty, among leaves of other counts: in the whole level
    # each leaf's product is one of a stack of five, alone on its family's
    # block a stack of one; the bits must agree
    rng = np.random.default_rng(149 + d + k)
    L = N.bit_length() - 1
    fams = rng.choice((N // 2) ** d, size=5, replace=False)
    lone = [tuple(2 * np.array(np.unravel_index(f, (N // 2,) * d))) for f in fams]
    pos = [np.asarray(b) / N + rng.uniform(size=(k, d)) / N for b in lone]
    others = rng.uniform(size=(60, d))
    taken = np.isin(np.ravel_multi_index(tuple((leaf_coords(others, L) // 2).T), (N // 2,) * d), fams)
    pos = np.concatenate(pos + [others[~taken]])
    g = rng.normal(size=len(pos)) + 1j * rng.normal(size=len(pos))
    leaves = leaf_coords(pos, L)
    phase = get_phase(name)
    whole = init_source_weights(L, (0,) * d, (N,) * d, pos, g, phase, q)
    assert [np.count_nonzero(np.all(leaves == b, axis=1)) for b in lone] == [k] * 5
    for b in lone:
        inside = np.all((leaves >= b) & (leaves < np.add(b, 2)), axis=1)
        alone = init_source_weights(L, b, (2,) * d, pos[inside], g[inside], phase, q)
        parent = tuple(slice(c // 2, c // 2 + 1) for c in b)
        assert np.array_equal(alone, whole[(slice(None),) * (d + 1) + parent]), b


def traced_peak(call):
    """call() and the peak bytes traced while it ran, the result's included."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_init_holds_no_product_over_all_sources():
    # d = 2, q = 6, 64 sources per leaf. Besides its output, the init holds
    # the real basis (8 n r bytes) and, while making it, two 1-D bases
    # (8 n q each); the modulated strengths (16 n 2^d) and the phase they
    # come from; and one window's moments and slots (16 _INIT_CHUNK each):
    # 8.9 MB measured. An (n, r) complex array over all sources would add
    # 16 n r = 9.4 MB on its own.
    d, level, q, n = 2, 4, 6, 16384
    rng = np.random.default_rng(127)
    pos = rng.uniform(size=(n, d))
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    phase = get_phase("fourier")
    out, peak = traced_peak(lambda: init_source_weights(level, (0,) * d, (1 << level,) * d, pos, g, phase, q))
    assert peak - out.nbytes < 16 * n * q**d


@pytest.mark.parametrize("team_bits", [0, 3], ids=["split0", "split1"])
def test_init_holds_its_output_and_one_window(team_bits):
    # d = 3, N = 16, q = 3, 512 sources, its factors given. The init holds
    # its output, the level-1 array of 16 N^d r bytes; one window's moments
    # and slots (16 _INIT_CHUNK each) and child sums (1/2^d of that), and in
    # a team one member's partial sum, as much again; and arrays over the n
    # sources: the real basis and the factor it is made from (8 n r each),
    # the modulated strengths and exp(i Phi) (16 n 2^d each), and the leaf
    # coordinates, the positions and leaves in the init's order, the leaf
    # indices and the sort, 8 n (3d + 3) bytes in all. That bound is
    # 3.35 MB, and 3.14-3.20 MB are measured. A level-0 scratch of the
    # output's size, which the init once held, would break it, as would the
    # 2^d level-0 arrays it returned before that (14.2 MB on their own).
    d, level, q, n = 3, 4, 3, 512
    r = q**d
    rng = np.random.default_rng(137)
    pos = rng.uniform(size=(n, d))
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    phase = get_phase("gen-radon")
    made = []
    args = (level, (0,) * d, (1 << level,) * d, pos, g, phase, q)
    first = init_source_weights(*args, factors=lambda xs, grids: made.extend(cheb.phase_factors(phase, xs, grids)) or made,
                                team_bits=team_bits)
    out, peak = traced_peak(lambda: init_source_weights(*args, factors=lambda xs, grids: made, team_bits=team_bits))
    assert np.array_equal(out, first)
    assert out.nbytes == 16 * r << (level * d)
    assert peak <= out.nbytes + (2 + 2.0 ** (1 - d)) * 16 * cheb._INIT_CHUNK + 16 * n * r + 32 * n * 2**d + 8 * n * (3 * d + 3)


def test_column_stage_holds_three_arrays_of_its_output():
    # With its factors given, a column stage holds the running sum over the
    # children, one child's modulated rows and the array its per-dimension
    # products alternate with; the re-expansion is demodulated in place:
    # three arrays of the output's size. A copy of the values repeated onto
    # the target children (np.repeat), a fresh array per
    # dimension or a demodulated copy would make a fourth.
    d, q, L, level = 2, 6, 5, 2
    rng = np.random.default_rng(131)
    shape = (q**d,) + (1 << level,) * d + (1 << (L - level),) * d
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    phase = get_phase("fourier")
    made = []
    first = column_stage(level, (0,) * d, L - level, (0,) * d, values, phase, q,
                         factors=lambda xs, grids: made.extend(cheb.phase_factors(phase, xs, grids)) or made)
    out, peak = traced_peak(lambda: column_stage(level, (0,) * d, L - level, (0,) * d, values, phase, q,
                                                 factors=lambda xs, grids: made))
    assert np.array_equal(out, first)
    assert peak < 3.5 * out.nbytes


@pytest.mark.parametrize("d,L,level,q", [(1, 5, 2, 6), (2, 4, 1, 4), (3, 3, 1, 3)])
def test_column_stage_demodulates_the_canonical_child_sum(d, L, level, q):
    # the children's re-expansions are added undemodulated, in canonical
    # order, and their sum is demodulated once: demod * (((c0 + c1) + c2)
    # + ...), bit for bit
    rng = np.random.default_rng(167 + d)
    shape = (q**d,) + (1 << level,) * d + (1 << (L - level),) * d
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    phase = get_phase("gen-radon" if d == 3 else "fourier")
    made = []
    got = column_stage(level, (0,) * d, L - level, (0,) * d, values, phase, q,
                       factors=lambda xs, grids: made.extend(cheb.phase_factors(phase, xs, grids)) or made)
    total = None
    for (offset, index), mod in zip(present_children((0,) * d, shape[d + 1 :]), made[1:]):
        child = _column_contribution(offset, values[(slice(None),) * (d + 1) + index], mod, q)
        total = child if total is None else total + child
    # np.multiply, not *: numpy may take a large temporary right operand
    # as the output and swap the operands, which rounds otherwise
    assert np.array_equal(got, np.multiply(made[0], total))


def test_init_demodulates_the_child_sum_once_at_any_team_bits():
    # d = 2: the init's undemodulated sum, made with ones for the
    # demodulation, times the demodulation gives its bits, and a team of a
    # member per child adds the children in canonical order, as a local
    # init does
    d, level, q, n = 2, 4, 4, 600
    rng = np.random.default_rng(173)
    pos = rng.uniform(size=(n, d))
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    phase = get_phase("hyp-radon")
    made = []
    args = (level, (0,) * d, (1 << level,) * d, pos, g, phase, q)
    local = init_source_weights(*args, factors=lambda xs, grids: made.extend(cheb.phase_factors(phase, xs, grids)) or made)
    team = init_source_weights(*args, factors=lambda xs, grids: made, team_bits=2)
    raw = init_source_weights(*args, factors=lambda xs, grids: [np.ones_like(made[0])])
    # the demodulation is laid out (P, r, T), the output (r, T, P)
    demod = made[0].reshape(-1, q**d, 1 << d).transpose(1, 2, 0).reshape(local.shape)
    assert np.array_equal(local, np.multiply(demod, raw))
    assert np.array_equal(team, local)


@pytest.mark.parametrize("d,L", [(1, 4), (2, 3)])
def test_child_sum_block_rows_are_bit_stable(d, L):
    # the init on every aligned block of leaves (the targets are always both
    # children of the root) against the whole level over the sources of the
    # children held: a leaf without sources adds exact zeros
    rng = np.random.default_rng(61 + d)
    n, q = 40 * d, 3
    pos = rng.uniform(size=(n, d))
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    leaves = leaf_coords(pos, L)
    phase = get_phase("fourier")
    whole = {}
    for runs in itertools.product(aligned_blocks(1 << L), repeat=d):
        b_lo, b_shape = tuple(a for a, _ in runs), tuple(n for _, n in runs)
        held = tuple(None if n > 1 else lo % 2 for lo, n in zip(b_lo, b_shape))
        if held not in whole:
            keep = np.ones(n, dtype=bool)
            for k, h in enumerate(held):
                if h is not None:
                    keep &= leaves[:, k] % 2 == h
            whole[held] = init_source_weights(L, (0,) * d, (1 << L,) * d, pos[keep], g[keep], phase, q)
        inside = np.all((leaves >= b_lo) & (leaves < np.add(b_lo, b_shape)), axis=1)
        got = init_source_weights(L, b_lo, b_shape, pos[inside], g[inside], phase, q)
        bp_lo, bp_shape = parent_block(b_lo, b_shape)
        index = (slice(None),) * (d + 1) + tuple(slice(a, a + n) for a, n in zip(bp_lo, bp_shape))
        assert np.array_equal(got, whole[held][index])


# ---------------------------------------------------------------------------
# the one kept solve of exp(+-i*Phi) factors (engine._kept, cheb entries)
# ---------------------------------------------------------------------------


def counted(phase):
    """phase as a new evaluator, and the list of the number of point pairs
    of each of its calls."""
    pairs = []

    def fn(xs, ys):
        pairs.append(int(np.prod(np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1]))))
        return phase.fn(xs, ys)

    return PhaseEvaluator(phase.name, phase.dim, fn), pairs


def kept_phase():
    """The phase of the set-up the slot holds, or None if it holds none (it
    is empty or holds a key-only marker)."""
    kept = bfly.engine._kept
    return kept.phase if kept is not None and kept.setup is not None else None


def kept_for(phase):
    """The kept solve's factors of each stage if they are phase's, else ()."""
    return bfly.engine._kept.setup if kept_phase() is phase else ()


def marked(phase, N, d=2, q=4):
    """Whether the slot holds the key-only marker of a cheb solve of phase."""
    kept = bfly.engine._kept
    key = ("cheb", d, N.bit_length() - 1, q)
    return kept is not None and kept.setup is None and kept.phase is phase and kept.key == key


def solve_bits(phase, N=8, d=2, q=4, p=None, seed=5):
    rng = np.random.default_rng(seed)
    s = SourceSet(rng.uniform(size=(300, d)), rng.normal(size=300) + 1j * rng.normal(size=300))
    if p is None:
        f = butterfly_apply(s, phase, N, q=q)
        return f.values, [f.ledger.flops]
    res = simulate_parallel(s, phase, N, p=p, q=q)
    return res.field.values, [(led.flops, led.messages, led.entries_sent) for led in res.ledgers]


@pytest.mark.parametrize("p", [None, 1, 4])
def test_warm_cold_and_uncached_solves_agree(p, no_kept, monkeypatch):
    phase, pairs = counted(get_phase("hyp-radon"))
    cold = solve_bits(phase, p=p)
    # the init's call at the sources, its demodulation's on the parent
    # grids, then one call per grid: two column stages, 1 + 2^d grids each
    sources, demod, *grids = list(pairs)
    # a first solve keeps nothing but its key
    assert len(grids) == 2 * 5 and kept_phase() is None and marked(phase, 8)
    del pairs[:]
    storing = solve_bits(phase, p=p)
    # the second keeps the init's and every stage's factors, and evaluates
    # their two-pair probes in one call at the end
    assert pairs == [sources, demod, *grids, 2 * 3] and len(kept_for(phase)) == 3
    del pairs[:]
    warm = solve_bits(phase, p=p)
    # warm: the probe, then the init's call at the sources
    assert pairs == [2 * 3, sources]
    monkeypatch.setattr(cheb, "_FACTOR_BYTES", 0)
    other, other_pairs = counted(get_phase("hyp-radon"))
    uncached = [solve_bits(other, p=p) for _ in range(3)][-1]
    assert kept_for(other) == () and other_pairs == 3 * [sources, demod, *grids]
    for got in (storing, warm, uncached):
        assert np.array_equal(got[0], cold[0]) and got[1] == cold[1]


def test_make_engine_leaves_the_cheb_slot_alone(no_kept):
    # a cheb set-up neither calls the phase nor touches the slot: only the
    # traversal takes the kept factors, so a hit's two calls are its own
    phase, pairs = counted(get_phase("hyp-radon"))
    for _ in range(2):
        solve_bits(phase)
    kept = bfly.engine._kept
    rng = np.random.default_rng(5)
    s = SourceSet(rng.uniform(size=(300, 2)), rng.normal(size=300) + 1j * rng.normal(size=300))
    del pairs[:]
    for other in (phase, get_phase("fourier")):
        bfly.engine.make_engine(other, 2, 8, s, q=4)
    assert pairs == [] and bfly.engine._kept is kept


@pytest.mark.parametrize("budget", [6144, 7168, 9216, 1 << 20])
def test_cache_stays_within_its_budget(budget, no_kept, monkeypatch):
    # d = 1, q = 3: the init's demodulation has N pairs x 3 nodes, 768
    # bytes at N = 16 and 384 at N = 8; a column stage has factors on 3
    # grids x N pairs x 3 nodes, 2304 and 1152 bytes. N = 16 makes three
    # column stages, 7680 bytes with the init's (past 7168 only with the
    # init's counted), and N = 8 two, 2688 bytes
    monkeypatch.setattr(cheb, "_FACTOR_BYTES", budget)
    phase = PhaseEvaluator("fourier", None, get_phase("fourier").fn)
    refs = [solve_bits(phase, N=n, d=1, q=3, seed=0)[0] for n in (16, 8)]
    assert kept_phase() is None
    for _ in range(2):
        for n, ref, nbytes in zip((16, 8), refs, (7680, 2688)):
            for i in range(2):  # kept from the second solve in a row on
                assert np.array_equal(solve_bits(phase, N=n, d=1, q=3, seed=0)[0], ref)
                if i == 0:  # a miss releases the other N's solve
                    assert kept_phase() is None and marked(phase, n, d=1, q=3)
            if nbytes <= budget:
                assert bfly.engine._kept.key == ("cheb", 1, n.bit_length() - 1, 3)
                assert sum(f.nbytes for stage in kept_for(phase) for f in stage) == nbytes
            else:  # nothing of a solve past the budget, its marker left
                assert kept_phase() is None and marked(phase, n, d=1, q=3)
    # one solve at most: the last, which fits every budget
    assert bfly.engine._kept.key[2] == 3 and sum(f.nbytes for stage in kept_for(phase) for f in stage) == 2688


def test_alternating_solves_keep_one_and_give_cold_bits(no_kept):
    resident = []  # whether a set-up was kept at each phase call

    def half(xs, ys):
        resident.append(kept_phase() is not None)
        return 0.5 * get_phase("hyp-radon").fn(xs, ys)

    a, a_pairs = counted(get_phase("hyp-radon"))
    b, b_pairs = counted(PhaseEvaluator("half", 2, half))
    cold = {a: solve_bits(a), b: solve_bits(b)}
    full = len(a_pairs)  # a cold solve's calls
    # (solve, the phase of the kept solve after it): a solve is kept from
    # the second in a row with its phase on, and any other solve releases
    # the kept one
    for phase, kept in ((a, None), (b, None), (a, None), (a, a), (b, None), (b, b), (a, None), (b, None), (a, None)):
        before = kept_phase()
        del a_pairs[:], b_pairs[:], resident[:]
        got = solve_bits(phase)
        assert np.array_equal(got[0], cold[phase][0]) and got[1] == cold[phase][1]
        assert kept_phase() is kept
        if phase is b:
            # a hit runs on its kept factors; any other solve releases what
            # was kept before its first phase call, a's too
            assert all(resident) if before is b else not any(resident)
        # a hit is the probe and the sources; a miss makes every factor and,
        # if it keeps them, evaluates their probe
        calls = a_pairs if phase is a else b_pairs
        assert len(calls) == (2 if before is phase else full + (kept is phase))


def test_solves_without_sources_keep_nothing_and_take_kept_stages(no_kept):
    # an init without sources takes no factors, so its solve keeps none;
    # with a solve kept, it takes the kept column stages and gives zeros
    phase = get_phase("hyp-radon")
    empty = SourceSet(np.zeros((0, 2)), np.zeros(0))
    for _ in range(2):
        assert not np.any(butterfly_apply(empty, phase, 8, q=4).values) and kept_phase() is None
    cold = solve_bits(phase)
    assert kept_for(phase)  # the previous solve had the same key
    assert not np.any(butterfly_apply(empty, phase, 8, q=4).values)
    assert np.array_equal(solve_bits(phase)[0], cold[0])


def test_a_new_evaluator_is_not_taken_for_a_freed_one(no_kept):
    # a new evaluator may get the identity of one freed before; solved
    # once each, none of them is kept
    for _ in range(10):
        phase = PhaseEvaluator("fresh", None, lambda x, y: 8.0 * get_phase("fourier").fn(x, y))
        solve_bits(phase)
        assert kept_phase() is None
        del phase


def test_cached_factors_are_read_only(no_kept):
    phase = get_phase("fourier")
    for _ in range(2):
        solve_bits(phase, N=8, d=1)
    arrays = [f for stage in kept_for(phase) for f in stage]
    assert len(arrays) == 1 + 2 * 3  # the init's demod, two column stages' demod and two mods
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0


class Failing:
    """The fourier phase, or NaN from call number fail_at on."""

    def __init__(self):
        self.calls = 0
        self.fail_at = None

    def __call__(self, xs, ys):
        self.calls += 1
        out = get_phase("fourier").fn(xs, ys)
        return out * np.nan if self.fail_at is not None and self.calls >= self.fail_at else out


def test_nan_phase_raises_every_time_and_stores_nothing(no_kept):
    fn = Failing()
    phase = PhaseEvaluator("failing", None, fn)
    cold = solve_bits(phase, N=8, d=1)[0]
    last = fn.calls  # the last column stage's last grid
    for _ in range(3):
        fn.calls, fn.fail_at = 0, last
        with pytest.raises(ValueError, match="NaN or inf"):
            solve_bits(phase, N=8, d=1)
        assert kept_phase() is None
    fn.fail_at = None
    for _ in range(2):  # kept from the first solve that finishes, then a hit
        assert np.array_equal(solve_bits(phase, N=8, d=1)[0], cold) and kept_for(phase)


class Unhashable:
    """A phase function that cannot be hashed, so neither can an evaluator
    that holds it."""

    __hash__ = None

    def __init__(self, scale):
        self.scale = scale

    def __call__(self, xs, ys):
        return self.scale * get_phase("fourier").fn(xs, ys)


def test_phases_of_one_name_do_not_share_factors(no_kept):
    one = PhaseEvaluator("same", None, Unhashable(1.0))
    two = PhaseEvaluator("same", None, Unhashable(2.0))
    first = [solve_bits(one, N=8, d=1)[0] for _ in range(3)][-1]
    assert kept_for(one)
    second = [solve_bits(two, N=8, d=1)[0] for _ in range(3)]
    assert kept_for(two) and not kept_for(one)
    bfly.engine._kept = None
    assert all(np.array_equal(solve_bits(two, N=8, d=1)[0], got) for got in second)
    assert not np.allclose(first, second[0])


def test_a_changed_phase_function_is_evaluated_again(no_kept):
    fn = Unhashable(1.0)
    phase = PhaseEvaluator("mutable", None, fn)
    for _ in range(2):
        solve_bits(phase, N=8, d=1)
    stale = kept_for(phase)
    assert len(stale) == 3  # the init's stage and two column stages
    fn.scale = 2.0
    # the probe's miss releases the stale factors, and the next solve in a
    # row keeps new ones
    got = solve_bits(phase, N=8, d=1)[0]
    assert kept_for(phase) == () and marked(phase, 8, d=1)
    assert np.array_equal(solve_bits(phase, N=8, d=1)[0], got)
    fresh = kept_for(phase)
    assert len(fresh) == 3
    assert not any(np.array_equal(a, b) for old, new in zip(stale, fresh) for a, b in zip(old, new))
    bfly.engine._kept = None
    assert np.array_equal(got, solve_bits(PhaseEvaluator("cold", None, Unhashable(2.0)), N=8, d=1)[0])


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
