"""Butterfly evaluation of oscillatory sums f(x) = sum_y exp(i*Phi(x,y)) g(y).

The engine runs log2(N) merge/split stages over the pair hierarchy
T_X(level) x T_Y(level): target boxes split while source boxes merge, so
every level holds exactly N^d pairs, each carrying a short weight vector.
Two interchangeable low-rank representations drive the translations, and in
both the weights are equivalent point sources:

* "cheb": analytic Chebyshev interpolation with phase demodulation (rank
  q^d per pair), whose weights sit on the Chebyshev grid of the pair's
  source box. The init puts each leaf's sources straight onto its parent's
  grid for the root's 2^d children and adds up each parent's children
  (stage 0), and column stages run through the last level (chebyshev.py);
* "id": interpolative decompositions built from kernel samples, whose
  weights sit at adaptively selected source points and whose translations
  recompress stacked child skeletons.

A level's weights are one complex array over its pairs: target box
coordinates (2^l,)*d, then source box coordinates (2^(L-l),)*d, in
canonical order, with the pair's weights as one more axis. The cheb engine
puts that axis first, (r,) + pairs, so that its stage applies the 1-D child
matrices one dimension at a time without a transpose; the id engine puts it
last, pairs + (width,), one padded weight vector per pair for its per-pair
maps. A stage maps the array of level l to the array of level l + 1,
summing each output pair's 2^d children in canonical coordinate order
(dimension 0 most significant). Both engines' init_blocks run stage 0 and
return level 1, or with N = 1 the final level 0; `stage` serves levels
1..L-1. The cheb stage is a handful of whole-level NumPy calls per child;
the id stage is one batched matrix-vector product per child, each pair with
its own precomputed map, kept zero-padded in one array per level laid out
child by child (IdEngine). The cheb init takes the sources in any order
and orders them itself on every solve, by window of parents and source
count, so that the leaves of one count are one matrix product
(chebyshev.init_source_weights); the id engine sorts them by leaf box once,
when it is built, so that its leaf weights are one segment sum.

What a solve makes from the phase and never from the strengths, like an
FFT's twiddles, is kept for the next solve in one slot per process
(_kept): one cheb solve's kernel factors or the last id set-up. The entry
holds its phase object, a key of everything else the set-up depends on,
and Phi at a few fixed point pairs, evaluated again in one call before
reuse, so that a phase whose function has changed is seen. A lookup that
does not match releases the slot before anything is built, whichever
backend it comes from. id keeps every set-up make_engine builds, its key
holding the positions' bytes, so a call on the same sources runs only the
traversal; the process then holds about 100 MB of padded maps between
solves on the benchmark's id-2d problem. cheb keeps a solve's factors
from the second solve in a row with one key on, the first leaving a
key-only marker, and only within chebyshev._FACTOR_BYTES
(ChebEngine.init_blocks). A build that raises keeps nothing, kept arrays
are read-only, and there is no lock: threads may each build, and each
gets the bits of a serial solve.

butterfly_apply is simulate_parallel (bfly.parallel) at p = 1: one loop
runs the init and a stage per later level on the level arrays, which the
ranks' blocks tile; a stage that moves `team_bits` rank bits adds the
partial sums of each team member into one level array in ascending member
order (see geometry.sum_children). Every pair of a stage is computed
independently of the other pairs, so a rank's pairs carry the bits it would
compute on its own block. Flops are charged
to the ledger as an array over the pairs of the level a call runs on,
which lets the simulator charge each rank for the pairs it holds.

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

import copy
import itertools
import numbers
import operator
import os
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional

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
)
from .lowrank import build_id
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
        self.strengths = np.asarray(self.strengths, dtype=complex)
        if self.positions.ndim != 2:
            raise ValueError(f"source positions have shape {self.positions.shape}; need (n, d)")
        if self.strengths.ndim != 1:
            raise ValueError(f"source strengths have shape {self.strengths.shape}; need (n,)")
        if self.positions.shape[1] < 1:
            raise ValueError(f"source positions have dimension {self.positions.shape[1]}; need at least 1")
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


def _usable_cores() -> int:
    """The cores this process may run on, which size the id precompute's
    pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _each(pool, fn, tasks) -> None:
    """fn on every task on the pool's workers; returns when all are done.
    Every result is read in task order, so the first failing task's error
    is raised, as a serial loop would raise it."""
    for _ in pool.map(fn, tasks):
        pass


class ChebEngine:
    """Analytic backend: fixed rank q^d, column stages through the last level.
    It keeps its sources as given; the init bins and orders them on every
    solve (chebyshev.init_source_weights)."""

    name = "cheb"

    def __init__(self, phase: PhaseEvaluator, d: int, N: int, q: int, sources: SourceSet):
        self.phase, self.d, self.N, self.L = phase, d, N, N.bit_length() - 1
        self.q = q
        self.r = q**d
        self.sources = sources

    def init_blocks(self, ledger: CostLedger, team_bits: int = 0) -> np.ndarray:
        """The weights of level 1, width first, (r,) + (2,)*d + (N/2,)*d,
        straight from the sources: stage 0, moving team_bits rank bits,
        whose team members' partial sums are added in ascending member order
        (chebyshev.init_source_weights). With N = 1 the final weights,
        (r,) + (1,)*d + (1,)*d. A traversal starts here, so here it takes
        the kept factors (_take): a hit uses them, a solve whose key the
        slot marks makes its own whole to keep them if they fit in
        chebyshev._FACTOR_BYTES, and any other solve leaves a key-only
        marker, so that the next solve with its key keeps."""
        d, L = self.d, self.L
        self._key = ("cheb", d, L, self.q)
        kept = _take(self.phase, self._key)
        self._stages = kept.setup if kept is not None else None
        self._made = None  # each stage's probe points and factors, when keeping
        if kept is None:
            _keep(self.phase, self._key)
        elif kept.setup is None and cheb._solve_factor_bytes(L, d, self.r) <= cheb._FACTOR_BYTES:
            self._made = [None] * max(L, 1)
        return cheb.init_source_weights(
            L, (0,) * d, (self.N,) * d, self.sources.positions, self.sources.strengths,
            self.phase, self.q, ledger, partial(self._factors, 0), team_bits,
        )

    def stage(self, level: int, values: np.ndarray, ledger: CostLedger, team_bits: int = 0) -> np.ndarray:
        """The weights of level + 1 from those of level >= 1 (the init
        covers stage 0), the partial sums of the members of a stage moving
        team_bits rank bits added in ascending member order
        (geometry.sum_children)."""
        lo = (0,) * self.d  # the block is the whole level
        factors = partial(self._factors, level)
        return cheb.column_stage(level, lo, self.L - level, lo, values, self.phase, self.q, ledger, team_bits, factors)

    def _factors(self, i: int, xs: np.ndarray, grids) -> tuple:
        """Stage i's factors (the init is stage 0), from the points
        chebyshev.phase_factors takes: the kept solve's on a hit; made whole
        and read-only when this solve keeps its own, all of them kept with
        the last stage's if every stage took them (an init without sources
        takes none); otherwise made one grid at a time as the stage takes
        them. The probe is Phi at each stage's first and last target center
        against its first grid's first node and its last grid's last."""
        if self._stages is not None:
            return self._stages[i]
        if self._made is None:
            return cheb.phase_factors(self.phase, xs, grids)
        ys = list(grids)
        factors = tuple(cheb.phase_factors(self.phase, xs, ys))
        for f in factors:
            f.setflags(write=False)
        d = self.d
        ends = np.stack([ys[0].reshape(-1, d)[0], ys[-1].reshape(-1, d)[-1]])
        self._made[i] = (xs.reshape(-1, d)[[0, -1]], ends, factors)
        if i == len(self._made) - 1 and all(m is not None for m in self._made):
            px, py = (np.concatenate([m[k] for m in self._made]) for k in (0, 1))
            _keep(self.phase, self._key, tuple(m[2] for m in self._made), px, py)
        return factors

    def make_field(self, values: np.ndarray) -> "PotentialField":
        """The field of the final level's weights, transposed once from
        (r,) + (N,)*d + (1,)*d into a new (N,)*d + (r,) array: equivalent
        sources on the root's grid, the same skeleton for every target
        leaf."""
        d, N = self.d, self.N
        grid = cheb.grid_points(self.q, 0, np.zeros(d, dtype=int))
        values = np.ascontiguousarray(np.moveaxis(values.reshape((self.r,) + (N,) * d), 0, -1))
        return PotentialField(self.phase, d, N, values, np.broadcast_to(grid, (N,) * d + grid.shape))


def _split(shape: tuple, inner: int) -> tuple:
    """Each axis n of shape as two, (n // inner, inner)."""
    return sum(((n // inner, inner) for n in shape), ())


class IdEngine:
    """Sampled backend: adaptive-rank skeletons of actual source points.

    All factorizations (leaf IDs and stacked-skeleton recompressions) are
    precomputed against the full source set, a stage's on a thread pool with
    a worker per usable core and the same bits for any worker count
    (_precompute), into arrays over each level's pairs: _ranks[l], and
    _maps[l], the maps of stage l zero-padded to one array
    (w_{l+1}, 2^d) + pairs of level l+1 + (w_l,), w_l the largest rank of
    level l, whose entry [t, n, a_c..., b_p..., s] carries weight s of
    (parent(A_c), child n of B_p) into weight t of (A_c, B_p). Rows come
    first so the array can be filled with room for any rank and cut to the
    level's width without a copy or touching the room, then the child, so
    each (row, child) a stage reads is one contiguous run over the pairs.
    A stage is one batched matrix-vector product per present child, the leaf
    initialization a segment sum over the leaf-sorted sources (_interp holds
    each source's column of its leaf's interpolation matrix).

    Everything but _strengths is the set-up: it depends on the phase, the
    positions, N, tol and rows_per_dim, never on the strengths, and is
    read-only once built, so engines on other strengths of the same sources
    share it (_with_strengths, which make_engine uses to reuse the last
    set-up). The constructor always builds.

    Row samples are a tensor Chebyshev grid of rows_per_dim points per
    dimension in every leaf target box, and a pair's row set is all such
    samples inside its target box, with no proxy rows. Every factorization,
    a leaf's or a pair's recompression of stacked child skeletons, is one
    lowrank.build_id call, which forms no Q, on a block the precompute
    sampled, factored in place except a leaf's: stage 0 gathers its blocks
    from the leaves' sampled skeleton columns instead of evaluating the
    phase again, and stages >= 1 sample theirs, one kernel_matrix call per
    sibling family (_precompute).
    """

    name = "id"

    def __init__(self, phase: PhaseEvaluator, d: int, N: int, tol: float, rows_per_dim: int, sources: SourceSet):
        self.phase, self.d, self.N, self.L = phase, d, N, N.bit_length() - 1
        self.tol = tol
        self.rows_per_dim = rows_per_dim
        # the sources sorted by leaf box in canonical order
        # (geometry.leaf_order): each leaf's sources are one run of them
        order, leaves = leaf_order(sources.positions, self.L)
        self._order = order
        self._positions = sources.positions[order]
        self._leaves = leaves[order]
        # imported here, so that the cheb path never loads it
        from concurrent.futures import ThreadPoolExecutor

        # a worker per usable core, at most one per task of a stage: every
        # stage has (N/2)^d, one per family, and N = 1 has one leaf
        with ThreadPoolExecutor(min(_usable_cores(), max(1, (N >> 1) ** d))) as pool:
            self._precompute(pool)
        # the set-up is shared by every engine on these sources
        # (_with_strengths), and the id field hands the last two to callers
        shared = (order, self._positions, self._leaves, self._interp, self._final_ranks, self._final_skeleton)
        for a in shared + tuple(self._ranks) + tuple(self._maps):
            a.setflags(write=False)
        self._strengths = sources.strengths[order]

    def _with_strengths(self, strengths: np.ndarray) -> "IdEngine":
        """An engine with this one's set-up and other strengths of the same
        sources, in their input order: it shares every precomputed array and
        runs no precompute."""
        engine = copy.copy(self)
        engine._strengths = strengths[self._order]
        return engine

    def _padded_skeleton(self, level: int, width: int) -> np.ndarray:
        """Skeleton points of the pairs of a level, pairs + (width, d), every
        slot holding the center of the pair's target box until filled."""
        d, n = self.d, 1 << level
        centers = cheb.box_centers(level, block_coords((0,) * d, (n,) * d))
        shape = (n,) * d + (self.N >> level,) * d + (width, d)
        return np.array(np.broadcast_to(centers.reshape((n,) * d + (1,) * d + (1, d)), shape))

    def _stage_arrays(self, level: int, width: int) -> tuple:
        """Zeroed ranks, padded skeleton and maps (room, 2^d) + pairs + (width,)
        of the output pairs of stage `level`, with room for any output rank."""
        d, shift = self.d, self.L - level - 1
        room = min(self.rows_per_dim**d << (d * shift), (1 << d) * width)
        shape = (2 << level,) * d + (1 << shift,) * d
        maps = np.zeros((room, 1 << d) + shape + (width,), dtype=complex)
        return np.zeros(shape, dtype=int), self._padded_skeleton(level + 1, room), maps

    @staticmethod
    def _store(arrays: tuple, pair: tuple, dec, stacked: np.ndarray, child_ranks: list) -> None:
        """Write one pair's rank, skeleton points (stacked[dec.column_indices])
        and interpolation matrix, whose columns are the stacked child
        weights, into a stage's arrays."""
        ranks, skeleton, maps = arrays
        ranks[pair] = dec.rank
        skeleton[pair][: dec.rank] = stacked[dec.column_indices]
        rows = maps[(slice(0, dec.rank), slice(None)) + pair]
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

    def _precompute(self, pool) -> None:
        """Every factorization, each stage's on the pool's workers, one task
        per sibling family, (N/2)^d in every stage: stage 0 one per source
        box B_p of level L - 1, whose leaves are sampled in one kernel call,
        later stages one per target box A of the input level and source box
        B_p of the output level, whose 2^d output pairs (A_c, B_p) are
        sampled in one kernel call and factored one by one. Every entry is
        the same phase and exp(i*Phi) of the same two points as in a per-pair
        sample, so the bits are those of sampling each pair on its own. Every
        pair of either kind of stage is one build_id call on its block and a
        _store; a family whose children all have rank 0 factors nothing. A
        task writes only its own slices of the ranks, skeleton,
        interpolation and map arrays, with the arithmetic of a serial loop,
        so the bits do not depend on the worker count, and a stage's first
        failing task in task order raises its error (_each)."""
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

        def sample_leaves(leaves: list) -> list:
            """The leaves' kernel blocks against every row sample, from one
            kernel_matrix call on their sources: for each leaf its own
            columns, Fortran-ordered (rows, n), or None if it is empty."""
            runs = [(first[b], count[b]) for b in leaves]
            pos = np.concatenate([self._positions[i : i + n] for i, n in runs])
            M = kernel_matrix(self.phase, all_rows, pos, order="F") if len(pos) else None
            los = np.cumsum([0] + [n for _, n in runs])
            return [M[:, lo : lo + n] if n else None for lo, (_, n) in zip(los, runs)]

        def leaf_id(b: tuple, M: Optional[np.ndarray]) -> tuple:
            """Factor leaf b from its sampled block M; return that block,
            transposed and laid out over the row samples as
            (n,) + (N,)*d + (g,) for its n sources, and the indices of its
            skeleton columns."""
            if M is None:
                return None, np.arange(0)
            i, n = first[b], count[b]
            pos = self._positions[i : i + n]
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
            leaf_id((0,) * d, sample_leaves([(0,) * d])[0])
        else:
            # Stage 0: pair (A_c, B_p) recompresses the skeletons of the
            # leaves B_n of B_p against the row samples inside A_c. Those
            # entries are the rows of A_c of the leaves' sampled skeleton
            # columns, which the phase contract makes the same bits as a new
            # sample, so the leaves of one B_p are sampled together and
            # factored, and each block is gathered from their samples. Child
            # weights get the leaf room until the leaf width is known.
            n_b = N >> 1
            out = self._stage_arrays(0, room)

            def merge_leaves(bp: tuple) -> None:
                leaves = [tuple(2 * b + o for b, o in zip(bp, kid)) for kid in kids]
                sampled = [leaf_id(b, M) for b, M in zip(leaves, sample_leaves(leaves))]
                child_ranks = [len(cols) for _, cols in sampled]
                stacked = sum(child_ranks)
                if not stacked:
                    return  # every pair of B_p keeps rank 0
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
                    self._store(out, ac + bp, dec, points, child_ranks)

            _each(pool, merge_leaves, np.ndindex(*(n_b,) * d))
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
            # (A, B_n), A = parent(A_c) and B_n the children of B_p in child
            # order, against the row samples of the leaves inside A_c. The
            # 2^d children A_c of A share those columns, so the family
            # (A, B_p) samples its blocks in one kernel_matrix call, and each
            # child factors its own
            shift = L - level - 1
            out = self._stage_arrays(level, width)

            def recompress(family: tuple) -> None:
                bp, a = family
                ins = [a + tuple(2 * b + o for b, o in zip(bp, kid)) for kid in kids]
                child_ranks = [ranks[p] for p in ins]
                if not sum(child_ranks):
                    return  # every output pair of the family keeps rank 0
                points = np.concatenate([skeleton[p][:r] for p, r in zip(ins, child_ranks)])
                acs = [tuple(2 * c + o for c, o in zip(a, kid)) for kid in kids]
                targets = np.stack(
                    [rows[tuple(slice(c << shift, (c + 1) << shift) for c in ac)].reshape(-1, d) for ac in acs]
                )
                # (2^d, rows of A_c, stacked), each child's block Fortran-
                # ordered in its own memory, so factored in place
                blocks = kernel_matrix(self.phase, targets, points, order="F")
                for ac, block in zip(acs, blocks):
                    dec = build_id(block, self.tol, overwrite=True)
                    self._store(out, ac + bp, dec, points, child_ranks)

            # _each returns once every task is done, so these read and fill
            # this stage's arrays before the names move on to the next
            families = itertools.product(np.ndindex(*(1 << shift,) * d), np.ndindex(*(1 << level,) * d))
            _each(pool, recompress, families)
            ranks, skeleton, width = self._finish_stage(out, width)
        # the final pairs (A, root) as arrays over the target leaves, the
        # padded slots holding the leaf center and weight exactly 0
        self._final_ranks = ranks.reshape((N,) * d)
        self._final_skeleton = skeleton.reshape((N,) * d + skeleton.shape[-2:])

    def init_blocks(self, ledger: CostLedger, team_bits: int = 0) -> np.ndarray:
        """The weights of level 1, (2,)*d + (N/2,)*d + (width,): the leaf
        weights Z @ g of every leaf box, as one segment sum, through stage
        0's maps (_apply_maps). With N = 1 the leaf weights are the final
        ones, (1,)*d + (1,)*d + (width,)."""
        d, N = self.d, self.N
        out = np.zeros((N,) * d + self._interp.shape[1:], dtype=complex)
        flat, starts = leaf_runs(self._leaves, (0,) * d, (N,) * d)
        if starts.size:
            weighted = self._interp * self._strengths[:, None]
            out.reshape(-1, out.shape[-1])[flat[starts]] = np.add.reduceat(weighted, starts, axis=0)
        counts = np.bincount(flat, minlength=N**d).reshape(self._ranks[0].shape)
        ledger.add_flops(2 * self._ranks[0] * counts)
        out = out.reshape((1,) * d + out.shape)
        return self._apply_maps(0, out, ledger, team_bits) if self.L else out

    def stage(self, level: int, values: np.ndarray, ledger: CostLedger, team_bits: int = 0) -> np.ndarray:
        """The weights of level + 1 from those of level >= 1 (the init
        covers stage 0)."""
        return self._apply_maps(level, values, ledger, team_bits)

    def _apply_maps(self, level: int, values: np.ndarray, ledger: CostLedger, team_bits: int) -> np.ndarray:
        """Stage `level`: apply every pair's map, child by child in the
        order of geometry.sum_children, the partial sums of the members of a
        stage moving team_bits rank bits added in ascending member order.
        Each pair's product is its own matrix-vector product, so a block of
        pairs gets the bits of the same pairs in the whole level. (A, B)'s
        weights are broadcast, not copied, onto the children A_c of A."""
        d = self.d
        out_ranks, in_ranks = self._ranks[level + 1], self._ranks[level]
        maps = self._maps[level]
        maps = maps.reshape(maps.shape[:2] + _split(maps.shape[2 : 2 + d], 2) + maps.shape[2 + d :])
        weights = values.reshape(_split(values.shape[:d], 1) + values.shape[d:])

        def contribution(offset, index):
            child = weights[(slice(None),) * 2 * d + index][..., None]
            product = np.matmul(np.moveaxis(maps[:, offset_index(offset)], 0, -2), child)
            return product.reshape(out_ranks.shape + maps.shape[:1])

        kids = present_children((0,) * d, values.shape[d : 2 * d])
        out = sum_children([o for o, _ in kids], (contribution(*kid) for kid in kids), team_bits)
        # each pair (A, B) feeds the children A_c of A at the parent of B:
        # the out rank of (A_c, parent(B)) times (2 * the rank of (A, B) + 1)
        per_out = out_ranks.reshape(_split(out_ranks.shape[:d], 2) + _split(out_ranks.shape[d:], 1))
        per_in = in_ranks.reshape(_split(in_ranks.shape[:d], 1) + _split(in_ranks.shape[d:], 2))
        ledger.add_flops((per_out * (2 * per_in + 1)).sum(axis=tuple(range(1, 2 * d, 2))).reshape(in_ranks.shape))
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


def _integer(name: str, value) -> int:
    """value as an int, if it is an integer and not a bool; otherwise a
    ValueError that names it."""
    if type(value) is int:  # skips the abstract-class check, 0.45 us a call
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return operator.index(value)
    raise ValueError(f"{name}={value!r} is not an integer")


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
    """The engine of a backend, set up on the sources: for cheb only
    checked, its init ordering them on every solve; for id sorted by leaf
    box, with every factorization precomputed.

    An id call takes the kept set-up (_take) when its phase object, d, N,
    tol, rows_per_dim and positions' bytes are those it was built from and
    the phase still gives the values of its probe, and builds an engine on
    it and the new strengths without a precompute. Any other id call
    releases the slot before it builds, so the old set-up is freed first
    unless the caller still holds an engine on it, and keeps its own once
    built; a build that raises keeps nothing. A cheb call neither reads nor
    fills the slot: its traversal does (ChebEngine.init_blocks)."""
    N = _integer("N", N)
    if N < 1 or (N & (N - 1)) != 0:
        raise ValueError(f"N={N} is not a power of two")
    if phase.dim is not None and phase.dim != d:
        raise ValueError(f"phase '{phase.name}' expects dimension {phase.dim}, got {d}")
    if sources.dim != d:
        raise ValueError(f"sources have dimension {sources.dim}, the engine has dimension {d}")
    q, rows_per_dim = _integer("q", q), _integer("rows_per_dim", rows_per_dim)
    for name, value in (("q", q), ("rows_per_dim", rows_per_dim)):
        if value < 1:
            raise ValueError(f"{name}={value!r} is not an integer >= 1")
    if not (isinstance(tol, numbers.Real) and 0.0 < tol < 1.0):  # NaN fails the comparison too
        raise ValueError(f"tol={tol!r} is not a number in (0, 1)")
    if backend == "cheb":
        return ChebEngine(phase, d, N, q, sources)
    if backend == "id":
        # the positions compared byte for byte: 0.0 and -0.0 compare equal as
        # numbers, but the phase can tell them apart
        key = ("id", d, N, tol, rows_per_dim, sources.positions.shape, sources.positions.tobytes())
        kept = _take(phase, key)
        if kept is not None:
            return kept.setup._with_strengths(sources.strengths)
        engine = IdEngine(phase, d, N, tol, rows_per_dim, sources)
        # the probe: Phi at the first and last row sample against the first
        # and last source; without sources the build never calls the phase,
        # any pairs do
        rows = cheb.grid_points(rows_per_dim, engine.L, np.array([(0,) * d, (N - 1,) * d]))
        xs = rows[[0, -1], [0, -1]]
        _keep(phase, key, engine, xs, engine._positions[[0, -1]] if len(engine._positions) else xs)
        return engine
    raise ValueError(f"unknown backend '{backend}'")


class _Kept(NamedTuple):
    """The slot's entry (module docstring): a set-up and what it was made
    from. The phase object is held, so that its identity is not reused.
    probe holds points xs and ys and Phi(xs, ys) taken when the set-up was
    made; a cheb key-only marker has neither set-up nor probe."""

    phase: PhaseEvaluator
    key: tuple
    setup: object = None
    probe: tuple = ()


_kept: Optional[_Kept] = None  # the one set-up kept per process


def _take(phase: PhaseEvaluator, key: tuple) -> Optional[_Kept]:
    """The kept entry if it was made from this phase object under this key
    and the phase still gives its probe's values, evaluated in one call;
    otherwise None, and the slot is emptied, so that what the caller builds
    next is never resident beside it."""
    global _kept
    kept = _kept
    if kept is not None and kept.phase is phase and kept.key == key:
        if not kept.probe or np.array_equal(phase(*kept.probe[:2]), kept.probe[2]):
            return kept
    _kept = None
    return None


def _keep(phase: PhaseEvaluator, key: tuple, setup=None, xs=None, ys=None) -> None:
    """Fill the slot with a set-up made from phase under key, taking its
    probe, Phi at points xs and ys, now; without a set-up, with a key-only
    marker."""
    global _kept
    _kept = _Kept(phase, key, setup, () if setup is None else (xs, ys, phase(xs, ys)))


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
    It is the same loop at p = 1: the field of simulate_parallel(p=1)."""
    from .parallel import simulate_parallel  # parallel imports this module

    return simulate_parallel(sources, phase, N, 1, q, backend, tol, rows_per_dim).field


def _rows_times(rows: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """rows @ vector, with every result independent of the other rows.

    numpy hands a single row to another BLAS kernel than any taller stack,
    which rounds differently; a lone row therefore goes through as a pair,
    so a target's value does not depend on the chunk it falls in."""
    if rows.shape[0] == 1:
        return (np.concatenate([rows, rows]) @ vector)[:1]
    return rows @ vector


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
        out[start : start + chunk] = _rows_times(kernel, sources.strengths)
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
