"""Butterfly evaluation of oscillatory sums f(x) = sum_y exp(i*Phi(x,y)) g(y).

The engine runs log2(N) merge/split stages over the pair hierarchy
T_X(level) x T_Y(level): target boxes split while source boxes merge, so
every level holds exactly N^d pairs, each carrying a short weight vector.
Two interchangeable low-rank representations drive the translations, and in
both the weights are equivalent point sources:

* "cheb": analytic Chebyshev interpolation with phase demodulation (rank
  q^d per pair), whose weights sit on the Chebyshev grid of the pair's
  source box. The init puts each leaf's sources straight onto its parent's
  grid for the root's 2^d children, stage 0 adds up each parent's
  children, and column stages run through the last level (chebyshev.py);
* "id": interpolative decompositions built from kernel samples, whose
  weights sit at adaptively selected source points and whose translations
  recompress stacked child skeletons.

A level's weights are one complex array of shape
(2^l,)*d + (2^(L-l),)*d + (width,): target box coordinates, then source box
coordinates, in canonical order, then the pair's weights. (cheb's init
output, the input of stage 0, already spans the root's two children per
dimension: (2,)*d + (N,)*d + (width,).) A stage maps the array of level l
to the array of level l + 1, summing each output pair's 2^d children in
canonical coordinate order (dimension 0 most significant). The cheb stage
is a handful of whole-level NumPy calls per child; the id stage is one
batched matrix-vector product per child, each pair with its own
precomputed map, kept zero-padded in one array per level (IdEngine). Both
backends start from the sources sorted by leaf box, so the leaf weights
are one segment sum.

butterfly_apply is the sequential reference. The distributed simulator in
bfly.parallel runs the same init and stages on the same level arrays, since
its ranks' blocks tile every level; a communicating stage keeps the partial
sums of each team member apart (`split`, see geometry.sum_children). Every
row of a stage is computed independently of the other rows (see
chebyshev._rows_times), so a rank's rows carry the bits it would compute on
its own block. Flops are charged to the ledger as an array over the pairs
of the level a call runs on, which lets the simulator charge each rank for
the pairs it holds.

The final level becomes a PotentialField: the pairs (A, root) for every
target leaf A, each with its equivalent sources, so
f(x) = sum_t K(x, s_t) delta_t[leaf(x)] for both backends. For cheb the
points s_t are the root's grid in every leaf, so evaluation forms q^d
kernel entries per target. The middle switch of Candes, Demanet and Ying
(2009) would cut that to one phase call per target, at the price of N^d
q^(2d) kernel entries per solve; it pays only past N^d q^d targets per
solve (36,864 for d = 2, N = 32, q = 6), so there is none. Evaluation runs
a chunk of points at a time with a few whole-chunk NumPy calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import chebyshev as cheb
from .costs import CostLedger
from .geometry import (
    DyadicKey,
    block_coords,
    leaf_coords,
    leaf_order,
    leaf_runs,
    offset_index,
    present_children,
    sum_children,
    to_children,
)
from .lowrank import build_id, build_translation_id
from .phases import PhaseEvaluator, _expi, kernel_matrix


class AllZeroReferenceError(ValueError):
    """Relative error against an identically zero reference is undefined."""


@dataclass
class SourceSet:
    """Point sources in the unit cube with complex strengths."""

    positions: np.ndarray  # (n, d)
    strengths: np.ndarray  # (n,) complex

    def __post_init__(self) -> None:
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.strengths = np.asarray(self.strengths, dtype=complex).reshape(-1)
        if self.positions.shape[0] != self.strengths.shape[0]:
            raise ValueError("positions and strengths disagree on the source count")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("source positions must be finite")
        if not np.all(np.isfinite(self.strengths)):
            raise ValueError("source strengths must be finite")
        if self.positions.size and (self.positions.min() < 0.0 or self.positions.max() > 1.0):
            raise ValueError("source positions must lie in the unit cube")

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def count(self) -> int:
        return self.positions.shape[0]


# ---------------------------------------------------------------------------
# Backend drivers
# ---------------------------------------------------------------------------


class _SortedSources:
    """An engine's problem and its sources, sorted by leaf box in canonical
    order (geometry.leaf_order): each leaf's sources are one run of them.
    An engine is always built on its sources."""

    def __init__(self, phase: PhaseEvaluator, d: int, N: int, sources: SourceSet):
        self.phase = phase
        self.d = d
        self.N = N
        self.L = N.bit_length() - 1
        self.set_sources(sources)

    def set_sources(self, sources: SourceSet) -> None:
        order, leaves = leaf_order(sources.positions, self.L)
        self._positions = sources.positions[order]
        self._strengths = sources.strengths[order]
        self._leaves = leaves[order]


class ChebEngine(_SortedSources):
    """Analytic backend: fixed rank q^d, column stages through the last level."""

    name = "cheb"

    def __init__(self, phase: PhaseEvaluator, d: int, N: int, q: int, sources: SourceSet):
        super().__init__(phase, d, N, sources)
        self.q = q
        self.r = q**d

    def init_blocks(self, ledger: CostLedger) -> np.ndarray:
        """What every leaf B puts on the pairs (A, parent(B)) of level 1,
        laid out over the pairs (X, B) of level 0: (2,)*d + (N,)*d + (r,)
        (chebyshev.init_source_weights). With N = 1 the final weights,
        (1,)*d + (1,)*d + (r,)."""
        d = self.d
        return cheb.init_source_weights(
            self.L, (0,) * d, (self.N,) * d, self._positions, self._strengths, self._leaves,
            self.phase, self.q, ledger,
        )

    def stage(self, level: int, values: np.ndarray, ledger: CostLedger, split: Tuple[int, ...] = ()) -> np.ndarray:
        """The weights of level + 1 from those of level; with split
        dimensions, stacked partial sums (geometry.sum_children)."""
        zeros = (0,) * self.d
        if level == 0:
            return cheb.child_sum_stage(zeros, values, ledger, split)
        return cheb.column_stage(level, zeros, self.L - level, zeros, values, self.phase, self.q, ledger, split)

    def make_field(self, values: np.ndarray) -> "PotentialField":
        """The field of the final level's weights, (N,)*d + (r,) after
        dropping the root's source axes: equivalent sources on the root's
        grid, the same skeleton for every target leaf."""
        d, N = self.d, self.N
        grid = cheb.grid_points(self.q, 0, np.zeros(d, dtype=int))
        return PotentialField(
            self.phase, d, N, values.reshape((N,) * d + (self.r,)), np.broadcast_to(grid, (N,) * d + grid.shape)
        )


class IdEngine(_SortedSources):
    """Sampled backend: adaptive-rank skeletons of actual source points.

    All factorizations (leaf IDs and stacked-skeleton recompressions) are
    precomputed against the full source set, one pair at a time, into arrays
    over each level's pairs: _ranks[l], and _maps[l], the maps of stage l
    zero-padded to one array (w_{l+1},) + pairs of level l+1 + (2^d, w_l),
    w_l the largest rank of level l, whose entry [t, a_c..., b_p..., n, s]
    carries weight s of (parent(A_c), child n of B_p) into weight t of
    (A_c, B_p). Rows come first so the array can be filled with room for any
    rank and cut to the level's width without a copy or touching the room.
    A stage is one batched matrix-vector product per present child, the leaf
    initialization a segment sum over the leaf-sorted sources (_interp holds
    each source's column of its leaf's interpolation matrix).

    Row samples are a tensor Chebyshev grid of rows_per_dim points per
    dimension in every leaf target box, and a pair's row set is all such
    samples inside its target box, with no proxy rows. Each factorization
    needs only R and the pivots of a column-pivoted QR (lowrank.build_id), so
    no Q is formed and every block is factored in place, except a leaf's:
    stage 0 gathers its blocks from the leaves' sampled skeleton columns
    instead of evaluating the phase again, and stages >= 1 sample theirs.
    """

    name = "id"

    def __init__(self, phase: PhaseEvaluator, d: int, N: int, tol: float, rows_per_dim: int, sources: SourceSet):
        self.tol = tol
        self.rows_per_dim = rows_per_dim
        super().__init__(phase, d, N, sources)  # set_sources runs the precompute

    def _sampler(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """A new Fortran-ordered kernel block, which build_id factors in place."""
        return kernel_matrix(self.phase, xs, ys, order="F")

    def set_sources(self, sources: SourceSet) -> None:
        super().set_sources(sources)
        self._precompute()

    def _padded_skeleton(self, level: int, width: int) -> np.ndarray:
        """Skeleton points of the pairs of a level, pairs + (width, d), every
        slot holding the center of the pair's target box until filled."""
        d, n = self.d, 1 << level
        centers = cheb.box_centers(level, block_coords((0,) * d, (n,) * d))
        shape = (n,) * d + (self.N >> level,) * d + (width, d)
        return np.array(np.broadcast_to(centers.reshape((n,) * d + (1,) * d + (1, d)), shape))

    def _stage_arrays(self, level: int, width: int) -> tuple:
        """Zeroed ranks, padded skeleton and maps of the output pairs of stage
        `level`, with room for any output rank and child weights of width."""
        d, shift = self.d, self.L - level - 1
        room = min(self.rows_per_dim**d << (d * shift), (1 << d) * width)
        shape = (2 << level,) * d + (1 << shift,) * d
        maps = np.zeros((room,) + shape + (1 << d, width), dtype=complex)
        return np.zeros(shape, dtype=int), self._padded_skeleton(level + 1, room), maps

    @staticmethod
    def _store(arrays: tuple, pair: tuple, dec, points: np.ndarray, child_ranks: list) -> None:
        """Write one pair's rank, skeleton points and interpolation matrix,
        whose columns are the stacked child weights, into a stage's arrays."""
        ranks, skeleton, maps = arrays
        ranks[pair] = dec.rank
        skeleton[pair][: dec.rank] = points
        rows = maps[(slice(0, dec.rank),) + pair]
        lo = 0
        for n, r in enumerate(child_ranks):
            rows[:, n, :r] = dec.matrix[:, lo : lo + r]
            lo += r

    def _finish_stage(self, arrays: tuple, width: int) -> tuple:
        """Keep a stage's ranks and its maps cut to the output width and to
        child weights of width; returns the level's ranks, skeleton and
        width."""
        ranks, skeleton, maps = arrays
        out = int(np.max(ranks))
        self._ranks.append(ranks)
        self._maps.append(np.ascontiguousarray(maps[:out, ..., :width]))
        return ranks, skeleton[..., :out, :], out

    def _precompute(self) -> None:
        d, L, N = self.d, self.L, self.N
        rows = cheb.grid_points(self.rows_per_dim, L, block_coords((0,) * d, (N,) * d))
        all_rows = rows.reshape(-1, d)
        # each leaf's run of the leaf-sorted sources
        flat, starts = leaf_runs(self._leaves, (0,) * d, (N,) * d)
        first = np.zeros(N**d, dtype=int)
        count = np.zeros(N**d, dtype=int)
        first[flat[starts]] = starts
        count[flat[starts]] = np.diff(np.append(starts, len(flat)))
        first, count = first.reshape((N,) * d), count.reshape((N,) * d)
        # leaf IDs against every row sample, written into room for any rank
        room = min(int(np.max(count, initial=0)), len(all_rows))
        ranks = np.zeros((1,) * d + (N,) * d, dtype=int)
        skeleton = self._padded_skeleton(0, room)
        interp = np.zeros((len(self._leaves), room), dtype=complex)

        def leaf_id(b: tuple) -> tuple:
            """Factor leaf b; return its sampled block, transposed and laid
            out over the row samples as (n,) + (N,)*d + (g,) for its n
            sources, and the indices of its skeleton columns."""
            i, n = first[b], count[b]
            if n == 0:
                return None, np.arange(0)
            pos = self._positions[i : i + n]
            M = self._sampler(all_rows, pos)
            dec = build_id(M, self.tol)  # on a copy: M is read again
            pair = (0,) * d + b
            ranks[pair] = dec.rank
            skeleton[pair][: dec.rank] = pos[dec.column_indices]
            interp[i : i + n, : dec.rank] = dec.matrix.T
            return M.T.reshape((n,) + rows.shape[:-1]), dec.column_indices

        self._ranks = [ranks]
        self._maps = []
        kids = [tuple((n >> k) & 1 for k in range(d)) for n in range(1 << d)]
        if L == 0:
            leaf_id((0,) * d)
        else:
            # Stage 0: pair (A_c, B_p) recompresses the skeletons of the
            # leaves B_n of B_p against the row samples inside A_c. Those
            # entries are the rows of A_c of the leaves' sampled skeleton
            # columns, which the phase contract makes the same bits as a new
            # sample, so the leaves are factored one B_p at a time and each
            # block is gathered from their samples. Child weights get the
            # leaf room until the leaf width is known.
            n_b = N >> 1
            out = self._stage_arrays(0, room)
            for bp in np.ndindex(*(n_b,) * d):
                leaves = [tuple(2 * b + o for b, o in zip(bp, kid)) for kid in kids]
                sampled = [leaf_id(b) for b in leaves]
                child_ranks = [len(cols) for _, cols in sampled]
                stacked = sum(child_ranks)
                if not stacked:
                    continue  # every pair of B_p keeps rank 0
                points = np.concatenate([skeleton[(0,) * d + b][:r] for b, r in zip(leaves, child_ranks)])
                for ac in np.ndindex(*(2,) * d):
                    in_ac = (slice(None),) + tuple(slice(c * n_b, (c + 1) * n_b) for c in ac)
                    # (stacked, rows of A_c) in C order: its transpose is a
                    # Fortran-ordered block that LAPACK may overwrite
                    block = np.empty((stacked,) + (n_b,) * d + (rows.shape[-2],), dtype=complex)
                    lo = 0
                    for (M, cols), r in zip(sampled, child_ranks):
                        if r:  # mode="clip" writes straight into out
                            np.take(M[in_ac], cols, axis=0, out=block[lo : lo + r], mode="clip")
                        lo += r
                    dec = build_id(block.reshape(stacked, -1).T, self.tol, overwrite=True)
                    self._store(out, ac + bp, dec, points[dec.column_indices], child_ranks)
        width = int(np.max(ranks))
        self._interp = interp[:, :width]
        skeleton = skeleton[..., :width, :]
        if L:
            ranks, skeleton, width = self._finish_stage(out, width)
        # Stages >= 1 sample their blocks. Gathering them too would hold the
        # skeleton columns of a whole level (9.2M entries, about 147 MB, at
        # stage 1 of the d = 2, N = 16 problem with 2048 sources), or hold
        # every later stage's maps ragged until the level widths are known
        # (about +20 MB over some 100 MB of padded maps). Either one breaks
        # the benchmark's 10% bound on peak memory.
        for level in range(1, L):
            # pair (A_c, B_p) of level + 1 recompresses the skeletons of
            # (parent(A_c), B_n), B_n the children of B_p in child order,
            # against the row samples of the leaves inside A_c
            shift = L - level - 1
            out = self._stage_arrays(level, width)
            for bp in np.ndindex(*(1 << shift,) * d):
                for ac in np.ndindex(*(2 << level,) * d):
                    ins = [tuple(c // 2 for c in ac) + tuple(2 * b + o for b, o in zip(bp, kid)) for kid in kids]
                    child_ranks = [ranks[p] for p in ins]
                    targets = rows[tuple(slice(c << shift, (c + 1) << shift) for c in ac)].reshape(-1, d)
                    dec = build_translation_id(
                        [skeleton[p][:r] for p, r in zip(ins, child_ranks)], targets, self._sampler, self.tol
                    )
                    self._store(out, ac + bp, dec, dec.points, child_ranks)
            ranks, skeleton, width = self._finish_stage(out, width)
        # the final pairs (A, root) as arrays over the target leaves, the
        # padded slots holding the leaf center and weight exactly 0
        self._final_ranks = ranks.reshape((N,) * d)
        self._final_skeleton = skeleton.reshape((N,) * d + skeleton.shape[-2:])

    def init_blocks(self, ledger: CostLedger) -> np.ndarray:
        """The leaf weights Z @ g of every leaf box, as one segment sum:
        (1,)*d + (N,)*d + (width,)."""
        d, N = self.d, self.N
        out = np.zeros((N,) * d + self._interp.shape[1:], dtype=complex)
        flat, starts = leaf_runs(self._leaves, (0,) * d, (N,) * d)
        if starts.size:
            weighted = self._interp * self._strengths[:, None]
            out.reshape(-1, out.shape[-1])[flat[starts]] = np.add.reduceat(weighted, starts, axis=0)
        counts = np.bincount(flat, minlength=N**d).reshape(self._ranks[0].shape)
        ledger.add_flops(2 * self._ranks[0] * counts)
        return out.reshape((1,) * d + out.shape)

    def stage(self, level: int, values: np.ndarray, ledger: CostLedger, split: Tuple[int, ...] = ()) -> np.ndarray:
        """Apply every pair's map, child by child in canonical order; with
        split dimensions, stacked partial sums (geometry.sum_children). Each
        pair's product is its own matrix-vector product, so a block of pairs
        gets the bits of the same pairs in the whole level."""
        d = self.d
        maps = np.moveaxis(self._maps[level], 0, -3)

        def contributions():
            for offset, index in present_children((0,) * d, values.shape[d : 2 * d]):
                child = to_children(values[(slice(None),) * d + index], d)
                yield offset, np.matmul(maps[..., offset_index(offset), :], child[..., None])[..., 0]

        out = sum_children(contributions(), split)
        # each pair (A, B) feeds the children A_c of A at the parent of B:
        # the out rank of (A_c, parent(B)) times (2 * the rank of (A, B) + 1)
        out_ranks = self._ranks[level + 1]
        per_a = out_ranks.reshape(sum(((n // 2, 2) for n in out_ranks.shape[:d]), ()) + out_ranks.shape[d:])
        per_a = per_a.sum(axis=tuple(range(1, 2 * d, 2)))
        for k in range(d):
            per_a = np.repeat(per_a, 2, axis=d + k)
        ledger.add_flops(per_a * (2 * self._ranks[level] + 1))
        return out

    def make_field(self, values: np.ndarray) -> "PotentialField":
        """The field of the final level's weights, (N,)*d + (width,) after
        dropping the root's source axes."""
        return PotentialField(
            self.phase, self.d, self.N, values.reshape((self.N,) * self.d + values.shape[-1:]),
            self._final_skeleton, self._final_ranks,
        )


# (point x weight) entries PotentialField.evaluate gathers at once, which
# bounds its memory
_EVAL_CHUNK = 1 << 16


@dataclass(eq=False)
class PotentialField:
    """The computed potential as the final level's weights, evaluable
    anywhere in the unit cube: f(x) = sum_t K(x, skeleton[a, t]) values[a, t]
    over the weights of the target leaf a that holds x.

    values[a_0, ..., a_{d-1}, :] holds the weights of the pair (A, root) for
    the target leaf box A with coordinates a, so values has shape
    (N,)*d + (width,), and skeleton[a..., t, :] is the source point weight t
    sits at, shape (N,)*d + (width, d). For cheb the skeleton is the root's
    Chebyshev grid in every leaf (a broadcast view). For id, ranks[a] is the
    length of A's weight vector; the padded slots hold A's center and weight
    exactly 0.
    """

    phase: PhaseEvaluator
    d: int
    N: int
    values: np.ndarray
    skeleton: np.ndarray
    ranks: Optional[np.ndarray] = None  # id only
    ledger: Optional[CostLedger] = None

    @property
    def level(self) -> int:
        return self.N.bit_length() - 1

    def weight_vector(self, key: DyadicKey) -> np.ndarray:
        """Final weights of one target leaf box (backend-specific length)."""
        if key.level != self.level or key.dim != self.d:
            raise KeyError(key)
        v = self.values[key.coords]
        return v if self.ranks is None else v[: self.ranks[key.coords]]

    def target_keys(self):
        return [DyadicKey(self.level, c) for c in np.ndindex(*self.values.shape[: self.d])]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """The potential at each point: a few whole-batch NumPy calls per
        chunk of points, each result independent of the rest of the batch."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.d:
            raise ValueError(f"evaluation points have dimension {points.shape[1]}, field has {self.d}")
        if not np.all(np.isfinite(points)):
            raise ValueError("evaluation points must be finite")
        if points.size and (points.min() < 0.0 or points.max() > 1.0):
            raise ValueError("evaluation points must lie in the unit cube")
        out = np.zeros(points.shape[0], dtype=complex)
        width = self.values.shape[-1]
        if points.shape[0] == 0 or width == 0:
            return out
        leaves = leaf_coords(points, self.level)
        flat = np.ravel_multi_index(tuple(leaves.T), self.values.shape[: self.d])
        values = self.values.reshape(-1, width)
        skeleton = self.skeleton.reshape(-1, width, self.d)  # a view, for cheb too
        step = max(1, _EVAL_CHUNK // width)
        for start in range(0, points.shape[0], step):
            sel = slice(start, start + step)
            idx = flat[sel]
            kernel = _expi(self.phase(points[sel, None, :], skeleton[idx]))
            out[sel] = np.einsum("ij,ij->i", kernel, values[idx])
        return out


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def make_engine(
    phase: PhaseEvaluator,
    d: int,
    N: int,
    sources: SourceSet,
    q: int = 8,
    backend: str = "cheb",
    tol: float = 1e-7,
    rows_per_dim: int = 4,
):
    """The engine of a backend, set up on the sources: sorted by leaf box
    and, for id, with every factorization precomputed."""
    if N < 1 or (N & (N - 1)) != 0:
        raise ValueError(f"N={N} is not a power of two")
    if phase.dim is not None and phase.dim != d:
        raise ValueError(f"phase '{phase.name}' expects dimension {phase.dim}, got {d}")
    if sources.dim != d:
        raise ValueError(f"sources have dimension {sources.dim}, the engine has dimension {d}")
    if backend == "cheb":
        return ChebEngine(phase, d, N, q, sources)
    if backend == "id":
        return IdEngine(phase, d, N, tol, rows_per_dim, sources)
    raise ValueError(f"unknown backend '{backend}'")


def butterfly_apply(
    sources: SourceSet,
    phase: PhaseEvaluator,
    N: int,
    q: int = 8,
    backend: str = "cheb",
    tol: float = 1e-7,
    rows_per_dim: int = 4,
) -> PotentialField:
    """Sequential butterfly evaluation; returns a field with a flop ledger.
    simulate_parallel(p=1) gives the same field and ledger, with the cost
    model's params."""
    eng = make_engine(phase, sources.dim, N, sources, q, backend, tol, rows_per_dim)
    ledger = CostLedger()
    values = eng.init_blocks(ledger)
    for level in range(eng.L):
        values = eng.stage(level, values, ledger)
    fieldv = eng.make_field(values)
    fieldv.ledger = ledger
    return fieldv


# kernel entries direct_apply forms at a time (512 KB of complex kernel),
# the fastest of 2^13..2^19 on 1024 targets x 4096 sources, all same bits
_DIRECT_CHUNK = 1 << 15


def direct_apply(sources: SourceSet, phase: PhaseEvaluator, targets: np.ndarray) -> np.ndarray:
    """Brute-force reference sum, chunked to bound peak memory."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    m = targets.shape[0]
    out = np.zeros(m, dtype=complex)
    if sources.count == 0 or m == 0:
        return out
    # at least two rows, and a lone last row paired by _rows_times: numpy
    # sends one row to another BLAS path, whose sums round differently
    chunk = max(2, _DIRECT_CHUNK // sources.count)
    for start in range(0, m, chunk):
        kernel = kernel_matrix(phase, targets[start : start + chunk], sources.positions)
        out[start : start + chunk] = cheb._rows_times(kernel, sources.strengths)
    return out


def rel_sup_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """max |approx - exact| / max |exact|; undefined for zero references."""
    approx = np.asarray(approx)
    exact = np.asarray(exact)
    if approx.shape != exact.shape:
        raise ValueError("shape mismatch between approx and exact values")
    denom = float(np.max(np.abs(exact))) if exact.size else 0.0
    if denom == 0.0:
        raise AllZeroReferenceError("reference values are identically zero")
    return float(np.max(np.abs(approx - exact)) / denom)
