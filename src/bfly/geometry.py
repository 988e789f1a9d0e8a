"""Dyadic geometry on the unit cube and rank-bit bisection bookkeeping.

Both the target domain X and the source domain Y are [0, 1]^d. A level-l
dyadic box has per-dimension width 2**-l and integer coordinates in
[0, 2**l). Boxes are half open: a point on a shared face belongs to the box
with the larger coordinate, and coordinate 1.0 folds into the last box.

Process ownership of a domain is a stack of bisections. Each entry names a
dimension and a rank-bit index; applying the stack bottom to top halves the
region once per entry, sending ranks whose bit is 0 to the lower half. A
rank's region is therefore a dyadic sub-box, and moving entries from the
source stack to the target stack is exactly the data redistribution of the
distributed butterfly: coarse source-side cuts become fine target-side cuts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np


class NoParentError(ValueError):
    """Raised when asking for the parent of a level-0 box."""


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

    @property
    def center(self) -> Tuple[float, ...]:
        return tuple(lo + w / 2.0 for lo, w in zip(self.lower, self.width))


def box_of(key: DyadicKey) -> BoxRegion:
    """Geometric region of a dyadic box inside the unit cube."""
    w = 1.0 / (1 << key.level)
    return BoxRegion(tuple(c * w for c in key.coords), (w,) * key.dim)


def center_of(key: DyadicKey) -> np.ndarray:
    return np.asarray(box_of(key).center, dtype=float)


def children(key: DyadicKey) -> list[DyadicKey]:
    """The 2^d children, ordered by child index whose bit k is the offset
    in dimension k (dimension 0 is the least significant bit)."""
    d = key.dim
    out = []
    for n in range(1 << d):
        coords = tuple(2 * c + ((n >> k) & 1) for k, c in enumerate(key.coords))
        out.append(DyadicKey(key.level + 1, coords))
    return out


def parent(key: DyadicKey) -> DyadicKey:
    if key.level == 0:
        raise NoParentError("level-0 box has no parent")
    return DyadicKey(key.level - 1, tuple(c // 2 for c in key.coords))


def child_index(key: DyadicKey) -> int:
    """Position of a box among its siblings (inverse of the children order)."""
    return sum((c & 1) << k for k, c in enumerate(key.coords))


def level_keys(d: int, level: int) -> Iterator[DyadicKey]:
    """All level-`level` boxes in canonical (coordinate-tuple) order."""
    for coords in itertools.product(range(1 << level), repeat=d):
        yield DyadicKey(level, coords)


# ---------------------------------------------------------------------------
# Bisection stacks
# ---------------------------------------------------------------------------

BisectionEntry = Tuple[int, int]  # (dimension, rank-bit index)


@dataclass(frozen=True)
class BisectionStack:
    """Immutable stack of (dimension, rank-bit) bisections, bottom first."""

    entries: Tuple[BisectionEntry, ...] = ()

    def push(self, entry: BisectionEntry) -> "BisectionStack":
        return BisectionStack(self.entries + (entry,))

    def pop(self) -> tuple[BisectionEntry, "BisectionStack"]:
        if not self.entries:
            raise StackExhaustedError("pop from empty bisection stack")
        return self.entries[-1], BisectionStack(self.entries[:-1])

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[BisectionEntry]:
        return iter(self.entries)


def init_bisection_stacks(d: int, p: int) -> tuple[BisectionStack, BisectionStack]:
    """Initial distribution: X undivided, Y cut round-robin across dimensions.

    Entry j (from the bottom) bisects dimension j mod d on rank bit
    log2(p) - 1 - j, so the coarsest cut follows the most significant bit and
    popping yields bits 0, 1, 2, ... in order.
    """
    if p < 1 or (p & (p - 1)) != 0:
        raise InvalidProcessCountError(f"p={p} is not a power of two")
    logp = p.bit_length() - 1
    dy = BisectionStack()
    for j in range(logp):
        dy = dy.push((j % d, logp - 1 - j))
    return BisectionStack(), dy


def pop_push(dx: BisectionStack, dy: BisectionStack, count: int) -> tuple[BisectionStack, BisectionStack]:
    """Move `count` entries from the top of D_Y to the top of D_X."""
    for _ in range(count):
        entry, dy = dy.pop()
        dx = dx.push(entry)
    return dx, dy


def region_coords(stack: BisectionStack, rank: int, d: int, level: int) -> list[tuple[int, int]]:
    """Per-dimension [start, stop) ranges of level-`level` boxes inside a
    rank's region. Exact integer arithmetic; requires the stack to cut no
    dimension more than `level` times."""
    prefix = [0] * d
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


def keys_in_region(stack: BisectionStack, rank: int, d: int, level: int) -> list[DyadicKey]:
    """Level-`level` boxes in a rank's region, canonical coordinate order."""
    ranges = region_coords(stack, rank, d, level)
    return [DyadicKey(level, coords) for coords in itertools.product(*(range(a, b) for a, b in ranges))]


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
