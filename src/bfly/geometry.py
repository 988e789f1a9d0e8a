"""Dyadic geometry on the unit cube and rank-bit bisection bookkeeping.

Both the target domain X and the source domain Y are [0, 1]^d. A level-l
dyadic box has per-dimension width 2**-l and integer coordinates in
[0, 2**l). Boxes are half open: a point on a shared face belongs to the box
with the larger coordinate, and coordinate 1.0 folds into the last box.

Process ownership of a domain is a stack of bisections: a plain tuple of
(dimension, rank-bit index) entries, bottom first. Applying the stack bottom
to top halves the region once per entry, sending ranks whose bit is 0 to the
lower half. A rank's region is therefore a dyadic sub-box, and moving entries
from the source stack to the target stack is exactly the data redistribution
of the distributed butterfly: coarse source-side cuts become fine target-side
cuts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

import numpy as np


class StackExhaustedError(ValueError):
    """Raised when popping more bisection entries than a stack holds."""


class InvalidProcessCountError(ValueError):
    """Raised for process counts that are not supported powers of two."""


@dataclass(frozen=True)
class DyadicKey:
    """A dyadic box: refinement level plus integer coordinates per dimension."""

    level: int
    coords: Tuple[int, ...]

    def __post_init__(self) -> None:
        top = 1 << self.level
        if any(c < 0 or c >= top for c in self.coords):
            raise ValueError(f"coords {self.coords} out of range at level {self.level}")

    @property
    def dim(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class BoxRegion:
    """An axis-aligned box given by per-dimension lower corners and widths."""

    lower: Tuple[float, ...]
    width: Tuple[float, ...]


def leaf_coords(points: np.ndarray, level: int) -> np.ndarray:
    """(n, d) integer coordinates of the level-`level` box of each point of
    the unit cube (half-open boxes, faces to the larger coordinate, 1.0
    folded into the last box)."""
    top = 1 << level
    return np.minimum((points * top).astype(int), top - 1)


def leaf_order(points: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, leaves): leaves = leaf_coords(points, level), and order the
    stable sort of the points by leaf box in canonical order, so the points
    of one box keep their input order and form one run of the sorted points."""
    leaves = leaf_coords(points, level)
    flat = np.ravel_multi_index(tuple(leaves.T), (1 << level,) * points.shape[1])
    return np.argsort(flat, kind="stable"), leaves


def leaf_runs(leaves: np.ndarray, lo: Tuple[int, ...], shape: Tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(flat, starts) for boxes (n, d) of the block lo/shape listed in
    canonical order: each box's flat (C-order) index in the block, and the
    first position of each run of equal boxes."""
    flat = np.ravel_multi_index(tuple((leaves - np.asarray(lo)).T), tuple(shape))
    if flat.size == 0:
        return flat, np.zeros(0, dtype=np.intp)
    return flat, np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])


def offset_index(offset: Tuple[int, ...]) -> int:
    """Index among its 2^d siblings of the child at per-dimension offsets in
    {0, 1}: bit k is the offset in dimension k (dimension 0 least significant)."""
    return sum(o << k for k, o in enumerate(offset))


# ---------------------------------------------------------------------------
# Blocks: rectangular runs of same-level boxes, lo[k] <= coords[k] < lo[k] + shape[k]
# ---------------------------------------------------------------------------

Block = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (lo, shape)


def block_coords(lo: Tuple[int, ...], shape: Tuple[int, ...]) -> np.ndarray:
    """Integer coordinates of a block's boxes, shape + (d,), canonical order."""
    d = len(lo)
    out = np.empty(tuple(shape) + (d,), dtype=np.int64)
    for k in range(d):
        out[..., k] = np.arange(lo[k], lo[k] + shape[k]).reshape([-1 if j == k else 1 for j in range(d)])
    return out


def parent_block(lo: Tuple[int, ...], shape: Tuple[int, ...]) -> Block:
    """The parents of a dyadic block (aligned, each extent 1 or even)."""
    return tuple(a // 2 for a in lo), tuple(max(1, n // 2) for n in shape)


def to_children(values: np.ndarray, d: int) -> np.ndarray:
    """An array laid out over a block of boxes (axes 0..d-1) repeated onto
    the block of their children: each box's entry goes to its 2^d children."""
    for k in range(d):
        values = np.repeat(values, 2, axis=k)
    return values


def sum_children(parts: Iterable[tuple[Tuple[int, ...], np.ndarray]], split: Tuple[int, ...] = ()) -> np.ndarray:
    """Add up a stage's per-child contributions, given as (offset, array)
    pairs in canonical order, each added to the running sum in that order.

    Children that differ in the split dimensions are kept apart: the result
    then stacks 2^len(split) sums, sum t over the children whose offset in
    dimension split[i] is bit i of t. Those are the partial sums of the
    members of a team of simulated ranks (see bfly.parallel).
    """
    sums: dict = {}
    for offset, contrib in parts:
        t = sum(offset[dim] << i for i, dim in enumerate(split))
        sums[t] = contrib if t not in sums else np.add(sums[t], contrib, out=sums[t])
    if not split:
        return sums[0]
    return np.stack([sums[t] for t in range(1 << len(split))])


def present_children(lo: Tuple[int, ...], shape: Tuple[int, ...]) -> Iterator[tuple[Tuple[int, ...], tuple]]:
    """Sibling positions held by a dyadic block, each with the index that
    selects those boxes from an array laid out over the block.

    A child offset o has o[k] in {0, 1}; the boxes at offset o are the
    children o of the block's parents (see parent_block). Offsets come in
    canonical coordinate order, dimension 0 most significant: the order in
    which every stage sums its children. A block one box wide in a dimension
    holds only the offsets matching that box's parity there.
    """
    for offset in itertools.product((0, 1), repeat=len(lo)):
        index = []
        for a, n, o in zip(lo, shape, offset):
            if n > 1:
                index.append(slice(o, None, 2))
            elif a % 2 == o:
                index.append(slice(None))
            else:
                break
        else:
            yield offset, tuple(index)


# ---------------------------------------------------------------------------
# Bisection stacks
# ---------------------------------------------------------------------------

BisectionEntry = Tuple[int, int]  # (dimension, rank-bit index)
BisectionStack = Tuple[BisectionEntry, ...]  # bottom first


def init_bisection_stacks(d: int, p: int) -> tuple[BisectionStack, BisectionStack]:
    """Initial distribution: X undivided, Y cut round-robin across dimensions.

    Entry j (from the bottom) bisects dimension j mod d on rank bit
    log2(p) - 1 - j, so the coarsest cut follows the most significant bit and
    popping yields bits 0, 1, 2, ... in order.
    """
    if p < 1 or (p & (p - 1)) != 0:
        raise InvalidProcessCountError(f"p={p} is not a power of two")
    logp = p.bit_length() - 1
    return (), tuple((j % d, logp - 1 - j) for j in range(logp))


def pop_push(dx: BisectionStack, dy: BisectionStack, count: int) -> tuple[BisectionStack, BisectionStack]:
    """Move `count` entries, one at a time, from the top of D_Y to the top
    of D_X: D_Y's top entry ends up below the others it is moved with."""
    if count > len(dy):
        raise StackExhaustedError(f"pop of {count} entries from a bisection stack of {len(dy)}")
    keep = len(dy) - count
    return dx + dy[keep:][::-1], dy[:keep]


def region_coords(stack: BisectionStack, rank, d: int, level: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-dimension [start, stop) ranges of level-`level` boxes inside a
    rank's region, for one rank or elementwise for an array of ranks. Exact
    integer arithmetic; requires the stack to cut no dimension more than
    `level` times."""
    rank = np.asarray(rank)
    prefix = [np.zeros_like(rank)] * d
    depth = [0] * d
    for dim, bit in stack:
        prefix[dim] = 2 * prefix[dim] + ((rank >> bit) & 1)
        depth[dim] += 1
    out = []
    for k in range(d):
        if depth[k] > level:
            raise ValueError(f"dimension {k} cut {depth[k]} times, finer than level {level}")
        shift = level - depth[k]
        out.append((prefix[k] << shift, (prefix[k] + 1) << shift))
    return out


def stage_split(N: int, d: int, p: int) -> tuple[int, int, int]:
    """Split the log2(N) stages into communication-free and communicating ones.

    Returns (local_stages, comm_stages, s) where s is the bit count of the
    first (partial) communicating stage; s = 0 means every communicating
    stage moves d bits. local + comm == log2(N) always.
    """
    if N < 1 or (N & (N - 1)) != 0:
        raise ValueError(f"N={N} is not a power of two")
    if p < 1 or (p & (p - 1)) != 0:
        raise InvalidProcessCountError(f"p={p} is not a power of two")
    L = N.bit_length() - 1
    logp = p.bit_length() - 1
    if logp > d * L:
        raise InvalidProcessCountError(f"p={p} exceeds the N^d={N**d} block count")
    g = d * L - logp  # log2 of the per-process block count N^d / p
    local = g // d
    comm = L - local
    s = g % d
    return local, comm, s


def stage_schedule(N: int, d: int, p: int) -> list[int]:
    """Bits transferred per stage, length log2(N), summing to log2(p).

    Stage ell merges the finest remaining bit of every dimension, so it must
    pull from the rank bits exactly in those dimensions whose local fine bits
    are already spent. The round-robin push order of init_bisection_stacks
    makes the stack pops line up with this count. For d <= 2, and whenever
    log2(N^d/p) is a multiple of d, the result is the familiar pattern of
    local stages, one partial s-bit stage, then full d-bit stages.
    """
    stage_split(N, d, p)  # validate N, p, and the p <= N^d regime
    L = N.bit_length() - 1
    logp = p.bit_length() - 1
    per_dim = [sum(1 for j in range(logp) if j % d == k) for k in range(d)]
    local_bits = [L - e for e in per_dim]
    schedule = [sum(1 for k in range(d) if local_bits[k] <= ell) for ell in range(L)]
    if sum(schedule) != logp:
        raise AssertionError("stage schedule failed to exhaust the rank bits")
    return schedule
