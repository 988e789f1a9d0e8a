"""Chebyshev tensor grids and the analytic low-rank weight operations.

Background
----------
Restricted to a target box A and source box B with diam(A) * diam(B) below
the phase's low-rank threshold, the oscillatory kernel exp(i*Phi(x, y))
factors numerically through a rank r = q^d expansion built from Lagrange
interpolation on tensor-product Chebyshev grids over B. Demodulating by the
phase at the center x_A of A makes the remaining factor smooth enough to
interpolate in y, which gives the weights of the pair (A, B):

    delta_t = exp(-i*Phi(x_A, b_t)) * sum_y exp(i*Phi(x_A, y)) L_t(y) g(y)

They are equivalent point sources at the grid nodes b_t of B: for x in A,
f_B(x) ~= sum_t K(x, b_t) delta_t. So the merge step is a pure
re-expansion of point masses, and it runs through the last level: there the
only source box is the root, and the potential at a point x of a target
leaf A is sum_t K(x, b_t) delta_t[A], r kernel entries over the root's grid
(engine.PotentialField). The middle switch of Candes, Demanet and Ying
(2009) would turn these weights into samples on target grids, so that
evaluation costs one phase call per target; it pays only past N^d * r
targets per solve and is not used.

The leaf sources go straight onto the grids of the leaves' parents,
demodulated at the centers of the root's children: the pairs of level 1
(init_source_weights). Stage 0 then only adds up each parent's children
(child_sum_stage), and every later stage is a column stage, so a solve
makes log2 N interpolations.

Grid conventions: first-kind Chebyshev nodes mapped affinely to each box
edge, stored in ascending order per dimension; tensor points are flattened
with dimension 0 varying fastest. Interpolation uses the barycentric form,
with exact node hits short-circuited so cardinality holds to the last bit.

The weight operations work on blocks of pairs (see the section below): one
phase evaluation and one contraction per child index cover a whole block,
and dyadic boxes being affine images of each other, the same 2^d reference
matrices serve every pair at every level.

A column stage's kernel factors exp(+-i*Phi), between its target-box
centers and its grid nodes, depend only on the phase, q and the block,
never on the sources: they are this transform's twiddles. Solves repeated
with one evaluator make each block's factors twice, one phase call per
grid, and then take them from a least-recently-used cache of at most
_FACTOR_BYTES (32 MiB) per process, read-only and with the same bits; a
process that solves once keeps nothing. cheb-2d (d = 2, N = 32, q = 6)
keeps 11.25 MiB, and a repeated solve there takes a third less time.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from .costs import CostLedger
from .geometry import (
    block_coords,
    leaf_runs,
    offset_index,
    parent_block,
    present_children,
    sum_children,
    to_children,
)
from .phases import PhaseEvaluator, _expi


@lru_cache(maxsize=None)
def _reference_nodes(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending first-kind nodes on [-1, 1] and their barycentric weights.

    The weights are the closed form for first-kind nodes (Berrut and
    Trefethen 2004), (-1)^(q-1-k) sin((2k+1) pi/(2q)) up to a common factor
    that cancels in the barycentric ratio; the product 1/prod(z_k - z_j)
    they stand for underflows past q of about 900."""
    if q < 1:
        raise ValueError("need at least one point per dimension")
    k = np.arange(q)
    angle = np.pi * (2 * k + 1) / (2 * q)
    z = -np.cos(angle)
    w = np.where((q - 1 - k) % 2 == 0, 1.0, -1.0) * np.sin(angle)
    w /= np.max(np.abs(w))
    return z, w


def _basis_1d(q: int, box_lo: np.ndarray, box_w: float, coords: np.ndarray) -> np.ndarray:
    """Barycentric Lagrange basis values, shape (len(coords), q), on boxes of
    edge box_w whose lower edge box_lo holds one value per coordinate."""
    z, w = _reference_nodes(q)
    x = np.asarray(coords, dtype=float)
    # same expression as grid_points, so a grid's own points hit bit-exactly;
    # the reference-frame rescale alone can be off by an ulp
    nodes = box_lo[:, None] + box_w * (z + 1.0) / 2.0
    s = 2.0 * (x - box_lo) / box_w - 1.0
    diff = s[:, None] - z[None, :]
    hit = (diff == 0.0) | (x[:, None] == nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = w[None, :] / diff
        basis = terms / np.sum(terms, axis=1, keepdims=True)
    rows = np.any(hit, axis=1)
    if np.any(rows):
        basis[rows] = 0.0
        basis[hit] = 1.0
    return basis


def _tensor_basis(q: int, lower: np.ndarray, width, pts: np.ndarray) -> np.ndarray:
    """Tensor Lagrange basis at pts (n, d): (n, q^d), dimension 0 fastest
    in the flat index. lower (d, n) holds each point's box lower edges,
    width[k] the boxes' edge length in dimension k."""
    n, d = pts.shape
    acc = np.ones((n, 1))
    for k in range(d - 1, -1, -1):
        bk = _basis_1d(q, lower[k], width[k], pts[:, k])
        acc = (acc[:, :, None] * bk[:, None, :]).reshape(n, -1)
    return acc


@lru_cache(maxsize=None)
def _child_matrices_1d(q: int) -> np.ndarray:
    """(2, q, q) arrays m[h][t', t] = basis t' of [0, 1] at node t of half h."""
    halves = [grid_points(q, 1, np.array([h]))[:, 0] for h in range(2)]
    return np.stack([_basis_1d(q, np.zeros(q), 1.0, x).T for x in halves])


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


def box_centers(level: int, coords: np.ndarray) -> np.ndarray:
    """Centers of level-`level` boxes from integer coordinates (..., d)."""
    w = 1.0 / (1 << level)
    return coords * w + w / 2.0


@lru_cache(maxsize=None)
def _grid_layout(q: int, d: int) -> np.ndarray:
    """Node index along each dimension of every flat grid point: (d, q^d)."""
    which = (np.arange(q**d) // q ** np.arange(d)[:, None]) % q
    which.setflags(write=False)
    return which


def grid_points(q: int, level: int, coords: np.ndarray) -> np.ndarray:
    """Chebyshev grids of level-`level` boxes from integer coordinates:
    (..., d) -> (..., q^d, d), dimension 0 fastest. Each node is the box's
    lower edge plus w * (z + 1) / 2, w the edge length and z the reference
    node, the expression _basis_1d uses to recognise a node."""
    z, _ = _reference_nodes(q)
    w = 1.0 / (1 << level)
    d = coords.shape[-1]
    offsets = w * (z + 1.0) / 2.0
    which = _grid_layout(q, d)
    pts = np.empty(coords.shape[:-1] + (q**d, d))
    for k in range(d):
        pts[..., k] = ((coords[..., k] * w)[..., None] + offsets)[..., which[k]]
    return pts


@lru_cache(maxsize=None)
def _stage_matrices(q: int, d: int) -> np.ndarray:
    """The child matrices laid out for contracting stacks of weight rows:
    entry n is M[n].T, so rows @ entry n applies M[n] to every row."""
    column = np.ascontiguousarray(np.transpose(_child_matrices(q, d), (0, 2, 1)), dtype=complex)
    column.setflags(write=False)
    return column


def cached_matrix_bytes(q: int, d: int) -> int:
    """Bytes that `_child_matrices` and `_stage_matrices` keep for (q, d):
    one real and one complex (2^d, q^d, q^d) stack, for the life of the
    process."""
    return (8 + 16) * (1 << d) * q ** (2 * d)


# A column stage's exp(+-i*Phi) factors, between its target-box centers and
# its parent and child grids, depend only on the phase, q and the block,
# never on the sources: like an FFT's twiddles, a solve repeated with one
# evaluator, one plan applied to many source sets, need not make them again.
# A block's factors are kept from the second time they are made, read-only,
# in a least-recently-used cache of at most _FACTOR_BYTES, so a process that
# solves once keeps nothing. Nothing is kept of a solve whose factors pass
# the budget: least-recently-used order would evict each stage's before the
# next solve came back to it. Keys are the phase's identity, q and the block
# geometry, so an unhashable phase function does no harm. An entry holds its
# phase, so that identity is not reused while it is cached, and a probe: Phi
# at two of the block's pairs, evaluated again on every hit. A phase whose
# function has changed since gives other values there, and the factors are
# made anew. The last _SEEN_KEYS keys made once are remembered. The budget
# is apart from the child matrices' (cached_matrix_bytes) and the CLI's q
# cap.
_FACTOR_BYTES = 32 << 20
_SEEN_KEYS = 1 << 12
_factors: "OrderedDict[tuple, tuple]" = OrderedDict()  # key -> (phase, probe xs, ys, Phi, factors, bytes)
_factor_bytes = 0
_seen: "dict[tuple, None]" = {}


def _stage_factors(
    key: tuple, phase: PhaseEvaluator, xs: np.ndarray, grids: Callable[[], list], solve_bytes: int
) -> Iterable[np.ndarray]:
    """exp(-i*Phi) between xs and grids()[0], then exp(i*Phi) between xs
    and each later grid: from the cache, or made one grid at a time, with
    the same bits either way. solve_bytes are the factors of every column
    stage of the solve. A phase that raises leaves nothing stored.

    One phase call per grid, not one over all grids, holds Phi of one grid
    at a time: at d = 3, N = 16, q = 5 that takes a solve's peak RSS from
    about 300 to 173 MB."""
    global _factor_bytes
    key = (id(phase),) + key
    entry = _factors.pop(key, None)
    if entry is not None:
        _factor_bytes -= entry[-1]
        if np.array_equal(phase(entry[1], entry[2]), entry[3]):
            _factors[key] = entry
            _factor_bytes += entry[-1]
            return entry[4]
    ys = grids()
    made = (_expi(-phase(xs, y) if i == 0 else phase(xs, y)) for i, y in enumerate(ys))
    nbytes = 16 * sum(int(np.prod(np.broadcast_shapes(xs.shape[:-1], y.shape[:-1]))) for y in ys)
    if key not in _seen or solve_bytes > _FACTOR_BYTES:
        _seen[key] = None
        if len(_seen) > _SEEN_KEYS:
            del _seen[next(iter(_seen))]
        return made
    factors = tuple(made)
    for f in factors:
        f.setflags(write=False)
    d = xs.shape[-1]
    px = xs.reshape(-1, d)[[0, -1]]
    py = np.stack([ys[0].reshape(-1, d)[0], ys[-1].reshape(-1, d)[-1]])
    while _factors and _factor_bytes + nbytes > _FACTOR_BYTES:
        _factor_bytes -= _factors.popitem(last=False)[1][-1]
    _factors[key] = (phase, px, py, phase(px, py), factors, nbytes)
    _factor_bytes += nbytes
    return factors


def _rows_times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat, mat a matrix or a vector, with every result row
    independent of the other rows.

    numpy hands a single row to another BLAS kernel than any taller stack
    (for a matrix, gemv rather than gemm), which rounds differently; a lone
    row therefore goes through as a pair. A simulated rank may hold a
    single row of a stage, and must still reproduce the sequential bits;
    direct_apply's last chunk may be a single target.
    """
    if rows.shape[0] == 1:
        return (np.concatenate([rows, rows]) @ mat)[:1]
    return rows @ mat


# ---------------------------------------------------------------------------
# Weight operations on blocks of pairs. A block's weights are one array
# values[a..., b..., t]: axes 0..d-1 run over a rectangular block of target
# boxes A (level a_level, first coordinates a_lo), axes d..2d-1 over a block
# of source boxes B (level b_level, first coordinates b_lo), and the last
# axis over the q^d weights of the pair (A, B). Every operation is a few
# NumPy calls over the whole block, each row computed independently of the
# others, so a sub-block gives the same bits as the same rows of the whole.
# Ledgers are charged an array of flops per pair of the input block, which
# lets a caller charge each pair's cost to whoever holds the pair.
# ---------------------------------------------------------------------------


def init_source_weights(
    level: int,
    b_lo: Tuple[int, ...],
    b_shape: Tuple[int, ...],
    positions: np.ndarray,
    strengths: np.ndarray,
    leaves: np.ndarray,
    phase: PhaseEvaluator,
    q: int,
    ledger: Optional[CostLedger] = None,
) -> np.ndarray:
    """What each leaf box B of a block puts on the weights of the pairs
    (A, P) of level 1, straight from the raw sources inside it:
    (2^a,)*d + b_shape + (q^d,), with a = min(level, 1).

    A runs over the children of the root and P is the parent of B: the
    sources of B are interpolated onto the grid of P and demodulated at the
    center of A, once per A, so stage 0 only adds up the children of each P
    (child_sum_stage). In a one-leaf tree (level 0), B is the root, A the
    whole target domain, and these are the final weights.

    leaves[i] holds the integer coordinates of the level-`level` box of
    source i, and the sources come sorted by leaf box in canonical order, so
    each box's moments are one segment sum. Empty boxes get zero weights and
    cost nothing. The ledger is charged an array of flops per box of the
    block.
    """
    d = len(b_lo)
    r = q**d
    a = min(level, 1)
    targets = (1 << a,) * d
    out = np.zeros(targets + tuple(b_shape) + (r,), dtype=complex)
    positions = np.asarray(positions, dtype=float).reshape(-1, d)
    strengths = np.asarray(strengths, dtype=complex)
    n = positions.shape[0]
    if n == 0:
        return out
    w = 1.0 / (1 << level)
    lo = leaves * w
    hi = lo + w
    inside_hi = (positions < hi) | ((hi == 1.0) & (positions <= 1.0))
    if not np.all((positions >= lo) & inside_hi):
        raise ValueError("source position outside its box")
    flat, starts = leaf_runs(leaves, b_lo, b_shape)
    if np.any(np.diff(flat) < 0):
        raise ValueError("sources must be sorted by leaf box")
    p_lo, p_shape = parent_block(b_lo, b_shape) if a else (tuple(b_lo), tuple(b_shape))
    parents = leaves >> a
    # each occupied leaf's parent, as a flat index into the block of parents
    home = np.ravel_multi_index(tuple((parents[starts] - np.asarray(p_lo)).T), p_shape)
    grid = grid_points(q, level - a, block_coords(p_lo, p_shape)).reshape(-1, d)
    centers = box_centers(a, block_coords((0,) * d, targets))
    ph = phase(centers.reshape(targets + (1, d)), np.concatenate([positions, grid]))
    mod = _expi(ph[..., :n]) * strengths
    demod = _expi(-ph[..., n:]).reshape(targets + (-1, r))
    wp = 1.0 / (1 << (level - a))
    basis = _tensor_basis(q, (parents * wp).T, (wp,) * d, positions)
    for t in np.ndindex(*targets):
        moments = np.add.reduceat(basis * mod[t][:, None], starts, axis=0)
        out[t].reshape(-1, r)[flat[starts]] = demod[t][home] * moments
    if ledger is not None:
        counts = np.bincount(flat, minlength=int(np.prod(b_shape)))
        per_box = (2 * r + 1) * counts + r * (counts > 0)
        ledger.add_flops((per_box << (a * d)).reshape(b_shape))
    return out


def child_sum_stage(
    b_lo: Tuple[int, ...],
    values: np.ndarray,
    ledger: Optional[CostLedger] = None,
    split: Tuple[int, ...] = (),
) -> np.ndarray:
    """Stage 0 on the output of init_source_weights for a block of leaves:
    the weights of each pair (A, P) are the sum, in canonical order, of
    what the children of P in the block put on them. Children outside the
    block and the split dimensions are handled as in column_stage."""
    d = len(b_lo)
    b_shape = values.shape[d : 2 * d]
    if ledger is not None:
        # each leaf adds one weight vector per target box
        ledger.add_flops(np.full(b_shape, values.shape[-1] << d))
    # copies: sum_children adds into the first part of each sum
    parts = ((offset, values[(slice(None),) * d + index].copy()) for offset, index in present_children(b_lo, b_shape))
    return sum_children(parts, split)


def column_stage(
    a_level: int,
    a_lo: Tuple[int, ...],
    b_level: int,
    b_lo: Tuple[int, ...],
    values: np.ndarray,
    phase: PhaseEvaluator,
    q: int,
    ledger: Optional[CostLedger] = None,
    split: Tuple[int, ...] = (),
) -> np.ndarray:
    """One column stage: weights of the pairs (A_c, B_p) fed by a block.

    The output block holds every child A_c of the block's target boxes and
    every parent B_p of its source boxes. Children of B_p outside the block
    are left out, so the partial sums of a rank's block add up across ranks;
    children that differ in the split dimensions are summed apart
    (geometry.sum_children). The demodulation on the parent grids and the
    modulation on every present child's grid take one phase call per grid;
    from a block's third stage with one phase on, they come from the cache
    (_stage_factors) instead, with the same bits.
    """
    d = len(a_lo)
    r = q**d
    a_shape, b_shape = values.shape[:d], values.shape[d : 2 * d]
    ac_lo, ac_shape = tuple(2 * x for x in a_lo), tuple(2 * n for n in a_shape)
    bp = block_coords(*parent_block(b_lo, b_shape))
    kids = list(present_children(b_lo, b_shape))
    xc = box_centers(a_level + 1, block_coords(ac_lo, ac_shape)).reshape(ac_shape + (1,) * d + (1, d))

    def grids():
        return [grid_points(q, b_level - 1, bp)] + [grid_points(q, b_level, 2 * bp + o) for o, _ in kids]

    key = (q, a_level, tuple(a_lo), a_shape, b_level, tuple(b_lo), b_shape)
    # L - 1 column stages of (1 + 2^d) N^d r factors each, N = 2^L
    levels = a_level + b_level
    solve_bytes = 16 * (levels - 1) * ((1 << d) + 1) * (1 << (levels * d)) * r
    factors = iter(_stage_factors(key, phase, xc, grids, solve_bytes))
    demod = next(factors)
    if ledger is not None:
        # each pair feeds the 2^d children of its target box
        ledger.add_flops(np.full(values.shape[: 2 * d], (2 * r * r + 3 * r) << d))
    contribs = (
        (offset, _column_contribution(offset, values[(slice(None),) * d + index], mod, demod, q))
        for (offset, index), mod in zip(kids, factors)
    )
    return sum_children(contribs, split)


def _column_contribution(
    offset: Tuple[int, ...],
    values: np.ndarray,
    mod: np.ndarray,
    demod: np.ndarray,
    q: int,
) -> np.ndarray:
    """Child `offset`'s share of a column stage, for a whole output block.

    values[a..., b..., :] are the weights of the pairs (A, B_o), B_o the
    child `offset` of the output's B_p: point sources at the child grid
    nodes. Each is modulated for every child A_c of A (mod), re-expanded on
    the parent grid by M[n] and demodulated (demod).
    """
    d = len(offset)
    r = q**d
    # A -> each of its children A_c. np.multiply, not `*`: numpy may reuse a
    # large temporary right operand with the operands swapped, which rounds
    # complex products differently from a small block's rows.
    rows = np.multiply(mod, to_children(values, d)).reshape(-1, r)
    w = _rows_times(rows, _stage_matrices(q, d)[offset_index(offset)])
    return demod * w.reshape(demod.shape)
