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

The leaf sources go straight onto the grids of the leaves' parents, each
parent's children are added up there, and the sum is demodulated at the
centers of the root's children: init_source_weights makes the pairs of
level 1 and so covers stage 0. Every later stage is a column stage, so a
solve makes log2 N interpolations.

Grid conventions: first-kind Chebyshev nodes mapped affinely to each box
edge, stored in ascending order per dimension; tensor points are flattened
with dimension 0 varying fastest. Interpolation uses the barycentric form,
with exact node hits short-circuited so cardinality holds to the last bit.

The weight operations work on blocks of pairs (see the section below), laid
out width first, (q^d,) + pairs: one phase evaluation per grid and d real
matrix products per child cover a whole block. A child's re-interpolation
onto its parent's grid is the Kronecker product of two 1-D matrices, one
per half of an edge, so it is applied one dimension at a time (sum
factorization, Orszag 1980): d q^(d+1) multiply-adds per pair instead of
q^(2d), each product one matmul with that dimension's nodes second to last,
without a transpose and without a dense q^d x q^d matrix. Dyadic boxes
being affine images of each other, the same two 1-D reference matrices
serve every pair at every level.

A column stage's kernel factors exp(+-i*Phi), between its target-box
centers and its grid nodes, and the init's demodulation on the parent
grids depend only on the phase, q and the tree, never on the sources: they
are this transform's twiddles, and the weight operations take them from
their caller. The demodulation stands outside the sum over the children,
so it multiplies their sum, once.

The weight operations keep their temporaries small, with the same bits as
whole-array products. The init's moments of a leaf are one small real
matrix product, its points-last (q^d, k) Lagrange basis times its k
modulated strengths for every target box, real and imaginary parts side
by side; the leaves of one source count are one np.matmul stack, in
windows of whole parent families of about _INIT_CHUNK complex entries.
Each window's children are added up and their sum demodulated straight
into the level-1 output, (q^d,) + (2,)*d + (N/2,)*d, rather than returning
2^d level-0 arrays for stage 0 to add up. A column stage modulates by
broadcasting instead of repeating its weights onto the target children,
alternates its d products between two arrays, and demodulates the
children's sum in place. The init's basis and each column contribution's
two level-sized arrays are allocated on every solve; README's cost model
section gives the peak memory and page faults this leads to.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Optional, Tuple

import numpy as np

from .costs import CostLedger
from .geometry import (
    block_coords,
    leaf_coords,
    parent_block,
    present_children,
    sum_children,
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


def _basis_1d(q: int, box_lo: np.ndarray | float, box_w: float, coords: np.ndarray) -> np.ndarray:
    """Barycentric Lagrange basis values, points last: (q, len(coords)), on
    boxes of edge box_w whose lower edge box_lo is one value per coordinate
    or one for all. The denominator is summed in node order, one row at a
    time: np.sum over the nodes would sum pairwise once a single point is
    left, so a point's bits would depend on how many come with it."""
    z, w = _reference_nodes(q)
    x = np.asarray(coords, dtype=float)
    # same expression as grid_points, so a grid's own points hit bit-exactly;
    # the reference-frame rescale alone can be off by an ulp. One (q, n)
    # array holds the nodes, then the differences, the terms and the basis.
    basis = np.add(box_lo, box_w * (z[:, None] + 1.0) / 2.0, out=np.empty((q, x.size)))
    hit = x == basis
    s = 2.0 * (x - box_lo) / box_w - 1.0
    diff = np.subtract(s, z[:, None], out=basis)
    hit |= diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.divide(w[:, None], diff, out=basis)
        den = terms[0].copy()
        for row in terms[1:]:
            den += row
        basis = np.divide(terms, den, out=basis)
    cols = np.any(hit, axis=0)
    if np.any(cols):
        basis[:, cols] = 0.0
        basis[hit] = 1.0
    return basis


def _tensor_basis(q: int, lower: np.ndarray, width, pts: np.ndarray) -> np.ndarray:
    """Tensor Lagrange basis at pts (n, d), points last: (q^d, n), dimension
    0 fastest in the flat index. lower (d, n) holds each point's box lower
    edges, width[k] the boxes' edge length in dimension k."""
    n, d = pts.shape
    acc = _basis_1d(q, lower[d - 1], width[d - 1], pts[:, d - 1])
    for k in range(d - 2, -1, -1):
        bk = _basis_1d(q, lower[k], width[k], pts[:, k])
        acc = (acc[:, None, :] * bk[None, :, :]).reshape(-1, n)
    return acc


@lru_cache(maxsize=None)
def _child_matrices_1d(q: int) -> np.ndarray:
    """(2, q, q) arrays m[h][t', t] = basis t' of [0, 1] at node t of half h.

    The re-interpolation from child n's grid onto its parent's is their
    Kronecker product over the dimensions, m[h_k] in dimension k, h_k bit k
    of n, and a stage applies it one dimension at a time
    (_column_contribution). Each m[h] is Fortran-ordered, strides (8, 8q),
    on purpose: the stage's bits depend on it. OpenBLAS takes another kernel
    for a C-ordered left operand on a narrow block of pairs, so the same
    values in C order would give a block other bits than the whole level."""
    m = np.empty((2, q, q)).swapaxes(1, 2)
    for h in range(2):
        m[h] = _basis_1d(q, 0.0, 1.0, grid_points(q, 1, np.array([h]))[:, 0])
    return m


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


def phase_factors(phase: PhaseEvaluator, xs: np.ndarray, grids: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """exp(-i*Phi) between xs and the first grid, then exp(i*Phi) between xs
    and each later grid, one phase call per grid as each is taken. That holds
    Phi of one grid at a time: at d = 3, N = 16, q = 5, a solve's peak RSS
    falls from about 300 to 173 MB."""
    for i, y in enumerate(grids):
        theta = phase(xs, y)
        yield _expi(-theta if i == 0 else theta)


# ---------------------------------------------------------------------------
# Weight operations on blocks of pairs. A block's weights are one array
# values[t, a..., b...], width first: axis 0 runs over the q^d weights of
# the pair (A, B), axes 1..d over a rectangular block of target boxes A
# (level a_level, first coordinates a_lo) and axes d+1..2d over a block of
# source boxes B (level b_level, first coordinates b_lo). Every operation is
# a few NumPy calls over the whole block, each pair computed independently
# of the others, so a sub-block gives the same bits as the same pairs of the
# whole.
# Ledgers are charged an array of flops per pair of the input block, which
# lets a caller charge each pair's cost to whoever holds the pair.
# ---------------------------------------------------------------------------


# complex entries of one window of init_source_weights: the moments of a
# run of whole parent families, for every child and target box (512 KB, as
# engine._DIRECT_CHUNK's kernel). The whole level's would be 2^d times the
# level-1 output, 524 MB at d = 3, N = 32, q = 5; a window's fit in cache
# and are reused.
_INIT_CHUNK = 1 << 15


def init_source_weights(
    level: int,
    b_lo: Tuple[int, ...],
    b_shape: Tuple[int, ...],
    positions: np.ndarray,
    strengths: np.ndarray,
    phase: PhaseEvaluator,
    q: int,
    ledger: Optional[CostLedger] = None,
    factors: Optional[Callable[..., Iterable[np.ndarray]]] = None,
    team_bits: int = 0,
) -> np.ndarray:
    """The weights of the pairs (A, P) of level 1 that a block of leaf
    boxes B feeds, straight from the raw sources inside it:
    (q^d,) + (2^a,)*d + p_shape, with a = min(level, 1) and p_shape the
    block's parents (geometry.parent_block), or b_shape when a = 0.

    A runs over the children of the root and P over the parents of the
    block's leaves. The sources of each leaf B are modulated at the center
    of A and interpolated onto the grid of its parent P, for every A at
    once; the present children of each P are then added in the order of
    stage 0 (geometry.sum_children, the partial sums of the 2^team_bits team
    members added in ascending member order), so this is stage 0 as well,
    and their sum is demodulated at the center of A, once per pair. The
    demodulation depends only on the phase, q and the block: it is the one
    array factors(xs, grids) gives, by default phase_factors, one phase call
    on the parent grids. In a one-leaf tree (level 0), B is the root, A the
    whole target domain, and these are the final weights.

    The sources come in any order, each inside the block
    (geometry.leaf_coords at `level`); a leaf's weights depend only on its
    own sources in their input order. The moments of a leaf of k sources
    are one real matrix product, its (q^d, k) basis times its
    (k, 2^(a d + 1)) modulated strengths, the real and imaginary parts of
    every A side by side; the leaves of one source count are one np.matmul
    stack. Every leaf's product is one BLAS call (numpy's own loop for
    k = 1, one product per entry) whose shapes and memory orders depend only
    on the leaf; only the basis's leading dimension, the block's source
    count, varies, and it does not change OpenBLAS's sums. So a leaf gives
    the same bits in any window, block, rank or input order. The leaves go
    in windows of whole parent families whose moments take at most
    _INIT_CHUNK complex entries, or of one family where its own take more.
    Empty boxes get zero weights.
    The ledger is charged an array of flops per box of the block: its
    moments, nothing for an empty box, and for a > 0 the child sum, q^d 2^d
    per box.
    """
    d = len(b_lo)
    r = q**d
    a = min(level, 1)
    targets = (1 << a,) * d
    T = 1 << (a * d)  # the target boxes, and the children of a parent
    p_lo, p_shape = parent_block(b_lo, b_shape) if a else (tuple(b_lo), tuple(b_shape))
    out = np.zeros((r,) + targets + p_shape, dtype=complex)
    positions = np.asarray(positions, dtype=float).reshape(-1, d)
    n = positions.shape[0]
    lo = np.asarray(b_lo)
    leaves = leaf_coords(positions, level)
    if not np.all((positions >= 0.0) & (positions <= 1.0) & (leaves >= lo) & (leaves < lo + b_shape)):
        raise ValueError("source position outside the block of leaves")
    flat = np.ravel_multi_index(tuple((leaves - lo).T), tuple(b_shape))
    counts = np.bincount(flat, minlength=int(np.prod(b_shape)))
    if ledger is not None:
        per_box = (2 * r + 1) * counts + r * (counts > 0)
        # the child sum: each leaf adds one weight vector per target box
        ledger.add_flops(((per_box << (a * d)) + (r << d if a else 0)).reshape(b_shape))
    if n == 0:
        return out
    occupied = np.flatnonzero(counts)
    sizes = counts[occupied]
    lead = block_coords(b_lo, b_shape).reshape(-1, d)[occupied]
    # each occupied leaf's parent, as a flat index into the block of
    # parents, and its index among the parent's children, canonical
    # (dimension 0 most significant; 0 in a one-leaf tree)
    home = np.ravel_multi_index(tuple(((lead >> a) - np.asarray(p_lo)).T), p_shape)
    kid = np.ravel_multi_index(tuple((lead & a).T), (2,) * d)
    # the leaves by window of `fam` parents, then by source count, then in
    # canonical order; the sources leaf by leaf in that order, each leaf's
    # in input order (a stable sort, which numpy makes a radix sort on keys
    # of 8 or 16 bits), so leaf i's sources start at begin[i]
    fam = min(max(1, _INIT_CHUNK // (r * T * T)), int(np.prod(p_shape)))
    key = home // fam * (n + 1) + sizes
    order = np.argsort(key, kind="stable")
    key, sizes, home, kid = key[order], sizes[order], home[order], kid[order]
    place = np.empty(counts.size, dtype=np.min_scalar_type(len(order) - 1))
    place[occupied[order]] = np.arange(len(order))
    perm = np.argsort(place[flat], kind="stable")
    begin = np.cumsum(sizes) - sizes
    positions = positions[perm]
    centers = box_centers(a, block_coords((0,) * d, targets)).reshape(T, d)
    # exp(i*Phi) at every source and target center, sources first: a leaf's
    # rows are its (k, 2T) real operand
    mod = _expi(phase(centers, positions[:, None, :]))
    mod *= np.asarray(strengths, dtype=complex)[perm, None]
    # the parent grids, made only if the factors are; the demodulation is
    # laid out (P, r, T) like the moments
    grids = (grid_points(q, level - a, block_coords(*blk)).reshape(-1, 1, d) for blk in [(p_lo, p_shape)])
    demod = next(iter((factors or partial(phase_factors, phase))(centers, grids))).reshape(-1, r, T)
    wp = 1.0 / (1 << (level - a))
    basis = _tensor_basis(q, ((leaves[perm] >> a) * wp).T, (wp,) * d, positions)
    # one window's moments, leaf by leaf, then by child and parent (slots)
    moments = np.empty((T * fam, r, T), dtype=complex)
    slots = np.zeros((T, fam, r, T), dtype=complex)
    summed = np.empty((fam, r, T), dtype=complex)
    offsets = [o for o, _ in present_children(b_lo, b_shape)]
    kids = [np.ravel_multi_index(o, (2,) * d) for o in offsets]
    by_pair = out.reshape(r, T, -1)
    cuts = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), len(key)]
    window, sizes, begin = (key // (n + 1)).tolist(), sizes.tolist(), begin.tolist()
    first = 0  # the window's first leaf
    for g0, g1 in zip(cuts, cuts[1:]):
        # the leaves g0 .. g1, of k sources each, as one stack
        k, s0 = sizes[g0], begin[g0]
        s1 = s0 + (g1 - g0) * k
        np.matmul(
            basis[:, s0:s1].reshape(r, -1, k).transpose(1, 0, 2),
            mod[s0:s1].view(float).reshape(-1, k, 2 * T),
            out=moments[g0 - first : g1 - first].view(float),
        )
        if g1 < len(key) and window[g1] == window[g0]:
            continue
        # the window's parents p0 .. p0 + width: the child sum, demodulated once
        p0 = window[g0] * fam
        width = min(fam, by_pair.shape[-1] - p0)
        at = (kid[first:g1], home[first:g1] - p0)
        slots[at] = moments[: g1 - first]
        sum_children(offsets, (slots[j, :width] for j in kids), team_bits, summed[:width])
        np.multiply(demod[p0 : p0 + width], summed[:width], out=by_pair[:, :, p0 : p0 + width].transpose(2, 0, 1))
        slots[at] = 0.0
        first = g1
    return out


def column_stage(
    a_level: int,
    a_lo: Tuple[int, ...],
    b_level: int,
    b_lo: Tuple[int, ...],
    values: np.ndarray,
    phase: PhaseEvaluator,
    q: int,
    ledger: Optional[CostLedger] = None,
    team_bits: int = 0,
    factors: Optional[Callable[..., Iterable[np.ndarray]]] = None,
) -> np.ndarray:
    """One column stage: weights of the pairs (A_c, B_p) fed by a block.

    The output block holds every child A_c of the block's target boxes and
    every parent B_p of its source boxes. Children of B_p outside the block
    are left out, so the partial sums of a rank's block add up across ranks;
    the children of each of the 2^team_bits team members are summed apart,
    and the members' partial sums added in ascending member order
    (geometry.sum_children). factors(xs, grids), by default phase_factors
    with one phase call per grid, gives the demodulation on the parent grids
    and the modulation on every present child's grid; the children are
    added undemodulated, and their total demodulated once, in place.
    """
    d = len(a_lo)
    r = q**d
    a_shape, b_shape = values.shape[1 : d + 1], values.shape[d + 1 :]
    ac_lo, ac_shape = tuple(2 * x for x in a_lo), tuple(2 * n for n in a_shape)
    bp = block_coords(*parent_block(b_lo, b_shape))
    kids = present_children(b_lo, b_shape)
    # operands ordered so the factors come out width first,
    # (r,) + ac_shape + bp_shape
    xc = box_centers(a_level + 1, block_coords(ac_lo, ac_shape)).reshape((1,) + ac_shape + (1,) * d + (d,))
    # the parent grids, then each present child's, made only if the factors are
    blocks = [(b_level - 1, bp)] + [(b_level, 2 * bp + o) for o, _ in kids]
    # each grid's nodes ahead of its boxes, in memory too, so that the
    # phase's results are C-ordered and _expi takes them without a copy
    grids = (
        np.ascontiguousarray(np.moveaxis(grid_points(q, level, coords), -2, 0))[(slice(None),) + (None,) * d]
        for level, coords in blocks
    )
    made = iter((factors or partial(phase_factors, phase))(xc, grids))
    demod = next(made)
    if ledger is not None:
        # each pair feeds the 2^d children of its target box. 3r per child
        # still counts a demodulation each, (2^d - 1) r per output pair more
        # than the stage makes: left to ROADMAP item 8, so modeled_s stays
        ledger.add_flops(np.broadcast_to((2 * d * q ** (d + 1) + 3 * r) << d, values.shape[1:]))
    contribs = (
        _column_contribution(offset, values[(slice(None),) * (d + 1) + index], mod, q)
        for (offset, index), mod in zip(kids, made)
    )
    total = sum_children([o for o, _ in kids], contribs, team_bits)
    return np.multiply(demod, total, out=total)


def _column_contribution(offset: Tuple[int, ...], values: np.ndarray, mod: np.ndarray, q: int) -> np.ndarray:
    """Child `offset`'s undemodulated share of a column stage's output block.

    values[:, a..., b...] are the weights of the pairs (A, B_o), B_o the
    child `offset` of the output's B_p: point sources at the child grid
    nodes. Each is modulated for every child A_c of A (mod) and re-expanded
    on the parent grid; column_stage demodulates the children's sum. The
    re-expansion is the Kronecker product of the 1-D child matrices, applied
    one dimension at a time (sum factorization): 2 d q^(d+1) flops per pair.
    """
    d = len(offset)
    r = q**d
    # A -> each of its children A_c by broadcasting: target axis k of mod
    # split as (A, child) against values with a unit axis there, so no copy
    # of values is repeated onto the children. Operands stay in this order:
    # numpy rounds a swapped complex product differently.
    children = sum(((n, 2) for n in values.shape[1 : d + 1]), (r,)) + mod.shape[d + 1 :]
    units = sum(((n, 1) for n in values.shape[1 : d + 1]), (r,)) + values.shape[d + 1 :]
    rows = np.empty(mod.shape, dtype=complex)  # C-ordered, for the float views below
    np.multiply(mod.reshape(children), values.reshape(units), out=rows.reshape(children))
    # The weight axis is (q,)*d, dimension 0 last. Dimension k's product is
    # one real matmul with its q nodes second to last, on float views, so
    # each pair's real and imaginary parts are two columns and a lone pair
    # still goes to gemm. The products alternate between rows and one more
    # array of the output's size: two arrays in all.
    other = np.empty_like(rows)
    m1 = _child_matrices_1d(q)
    for k in range(d):
        shape = (q ** (d - 1 - k), q, -1)
        np.matmul(m1[offset[k]], rows.view(float).reshape(shape), out=other.view(float).reshape(shape))
        rows, other = other, rows
    return rows
