"""Dyadic keys, bisection stacks, rank regions, and stage bookkeeping."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from bfly.chebyshev import box_centers, grid_points
from bfly.engine import SourceSet
from bfly.geometry import (
    DyadicKey,
    InvalidProcessCountError,
    StackExhaustedError,
    block_coords,
    init_bisection_stacks,
    leaf_coords,
    offset_index,
    parent_block,
    pop_push,
    present_children,
    region_coords,
    stage_schedule,
    stage_split,
)


def keys_in_region(stack, rank, d, level):
    """Level-`level` boxes in a rank's region, canonical coordinate order."""
    ranges = region_coords(stack, rank, d, level)
    return [DyadicKey(level, c) for c in itertools.product(*(range(a, b) for a, b in ranges))]


def child_coords(lo, shape):
    """Coordinates of the children of a block's boxes, by child index:
    (2^d,) + shape + (d,), child n at offset bit k in dimension k."""
    d = len(lo)
    coords = block_coords(lo, shape)
    return np.stack([2 * coords + [(n >> k) & 1 for k in range(d)] for n in range(1 << d)])


def test_children_1d_unit_interval():
    assert child_coords((0,), (1,)).reshape(-1).tolist() == [0, 1]
    assert parent_block((0,), (2,)) == ((0,), (1,))


def test_children_2d_order_dimension0_least_significant():
    kids = child_coords((1, 0), (1, 1)).reshape(-1, 2).tolist()
    assert kids == [[2, 0], [3, 0], [2, 1], [3, 1]]
    assert [offset_index(o) for o in ((0, 0), (1, 0), (0, 1), (1, 1))] == [0, 1, 2, 3]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_parent_children_roundtrip(d):
    # the children of a block of boxes form the block whose parents they are,
    # and present_children selects child n of every parent at offset n
    rng = np.random.default_rng(0)
    for level in range(4):
        for _ in range(10):
            lo = tuple(int(c) for c in rng.integers(0, 1 << level, size=d))
            shape = tuple(int(rng.integers(1, (1 << level) - c + 1)) for c in lo)
            kids = child_coords(lo, shape)
            k_lo, k_shape = tuple(2 * c for c in lo), tuple(2 * n for n in shape)
            assert parent_block(k_lo, k_shape) == (lo, shape)
            grid = block_coords(k_lo, k_shape)
            seen = 0
            for offset, index in present_children(k_lo, k_shape):
                n = offset_index(offset)
                assert np.array_equal(grid[index], kids[n])
                assert np.array_equal(grid[index] // 2, block_coords(lo, shape))
                seen += 1
            assert seen == 1 << d


def test_parent_examples():
    assert parent_block((3,), (1,)) == ((1,), (1,))
    assert parent_block((3, 0), (1, 1)) == ((1, 0), (1, 1))
    assert parent_block((2, 0), (2, 4)) == ((1, 0), (1, 2))
    # a block one box wide holds only the children of that box's parity
    assert [o for o, _ in present_children((3, 0), (1, 1))] == [(1, 0)]


def test_key_coords_validated():
    with pytest.raises(ValueError):
        DyadicKey(1, (2,))
    with pytest.raises(ValueError):
        DyadicKey(2, (0, -1))


def test_level_keys_counts_and_order():
    coords = block_coords((0, 0), (4, 4)).reshape(-1, 2)
    keys = [tuple(c) for c in coords.tolist()]
    assert len(keys) == 16
    assert keys[0] == (0, 0)
    assert keys == sorted(keys)


def test_box_geometry():
    coords = np.array([3, 0])
    assert box_centers(2, coords).tolist() == [0.875, 0.125]
    # the box [0.75, 1] x [0, 0.25] holds its grid, centered on the center
    grid = grid_points(2, 2, coords)
    assert grid.shape == (4, 2)
    assert np.all((grid > [0.75, 0.0]) & (grid < [1.0, 0.25]))
    assert np.allclose(grid.mean(axis=0), [0.875, 0.125])


def test_key_for_point_half_open_and_top_fold():
    # a point's leaf box, as the engines bin sources
    assert leaf_coords(np.array([[0.25]]), 2).tolist() == [[1]]
    assert leaf_coords(np.array([[1.0, 0.0]]), 3).tolist() == [[7, 0]]
    with pytest.raises(ValueError):
        SourceSet(np.array([[-0.1]]), [1.0])


def test_init_stacks_1d():
    dx, dy = init_bisection_stacks(1, 8)
    assert len(dx) == 0
    assert dy == ((0, 2), (0, 1), (0, 0))


def test_init_stacks_2d_p64():
    _, dy = init_bisection_stacks(2, 64)
    assert dy == ((0, 5), (1, 4), (0, 3), (1, 2), (0, 1), (1, 0))


def test_init_stacks_trivial_and_invalid():
    dx, dy = init_bisection_stacks(3, 1)
    assert len(dx) == 0 and len(dy) == 0
    with pytest.raises(InvalidProcessCountError):
        init_bisection_stacks(2, 3)


def test_pop_push_top_entries():
    dx, dy = init_bisection_stacks(2, 64)
    dx2, dy2 = pop_push(dx, dy, 2)
    assert dx2 == ((1, 0), (0, 1))
    assert len(dy2) == 4
    same_dx, same_dy = pop_push(dx, dy, 0)
    assert same_dx == dx and same_dy == dy
    with pytest.raises(StackExhaustedError):
        pop_push(dx, dy, 7)


def test_pop_push_drains_to_full_domain():
    dx, dy = init_bisection_stacks(2, 16)
    dx, dy = pop_push(dx, dy, 4)
    assert len(dy) == 0
    for rank in range(16):
        assert region_coords(dy, rank, 2, 0) == [(0, 1), (0, 1)]
        assert len(keys_in_region(dy, rank, 2, 2)) == 16


def test_region_of_rank5_1d():
    _, dy = init_bisection_stacks(1, 8)
    assert region_coords(dy, 5, 1, 3) == [(5, 6)]
    assert region_coords(dy, 5, 1, 5) == [(20, 24)]
    assert keys_in_region(dy, 5, 1, 3) == [DyadicKey(3, (5,))]


def test_region_partition_property():
    for d, p in [(1, 8), (2, 16), (3, 8)]:
        _, dy = init_bisection_stacks(d, p)
        level = 3
        seen = []
        for rank in range(p):
            seen.extend(keys_in_region(dy, rank, d, level))
        assert len(seen) == len(set(seen)) == (1 << (d * level))


def test_keys_in_region_canonical_order():
    # rank 1 = 0b01: dim 0 is cut on the high bit (0, lower half), dim 1 on
    # the low bit (1, upper half)
    _, dy = init_bisection_stacks(2, 4)
    keys = keys_in_region(dy, 1, 2, 2)
    assert keys == sorted(keys, key=lambda k: k.coords)
    assert all(k.coords[0] < 2 <= k.coords[1] for k in keys)


def test_bit_reverse():
    # moving every source-side cut to the target side leaves rank q owning
    # the target box whose index is q with its bits reversed
    for p in (2, 8, 16):
        L = p.bit_length() - 1
        dx, dy = pop_push(*init_bisection_stacks(1, p), L)
        for rank in range(p):
            reversed_rank = int(format(rank, f"0{L}b")[::-1], 2)
            assert keys_in_region(dx, rank, 1, L) == [DyadicKey(L, (reversed_rank,))]


def test_stage_split_examples():
    assert stage_split(8, 2, 16) == (1, 2, 0)
    assert stage_split(16, 1, 1) == (4, 0, 0)
    assert stage_split(8, 2, 32) == (0, 3, 1)
    with pytest.raises(InvalidProcessCountError):
        stage_split(4, 1, 8)
    with pytest.raises(InvalidProcessCountError):
        stage_split(8, 2, 6)


def test_stage_split_partition_of_stages():
    for d in (1, 2, 3):
        for logn in range(1, 5):
            N = 1 << logn
            for logp in range(0, d * logn + 1):
                local, comm, s = stage_split(N, d, logp and (1 << logp) or 1)
                assert local + comm == logn
                assert 0 <= s < d


def test_stage_schedule_patterns():
    assert stage_schedule(8, 2, 16) == [0, 2, 2]
    assert stage_schedule(8, 2, 32) == [1, 2, 2]
    assert stage_schedule(16, 1, 8) == [0, 1, 1, 1]
    assert stage_schedule(16, 1, 16) == [1, 1, 1, 1]
    assert stage_schedule(8, 3, 512) == [3, 3, 3]


def test_stage_schedule_sums_and_monotone_bits():
    # every legal configuration exhausts exactly log2(p) bits across
    # log2(N) stages, and a dimension once communicating never goes local
    for d in (1, 2, 3):
        for logn in range(0, 5):
            N = 1 << logn
            for logp in range(0, d * logn + 1):
                sched = stage_schedule(N, d, 1 << logp)
                assert len(sched) == logn
                assert sum(sched) == logp
                assert all(0 <= k <= d for k in sched)
                assert all(sched[i] <= sched[i + 1] for i in range(len(sched) - 1))


def test_stage_schedule_matches_split_when_defined():
    # wherever the "s then full stages" pattern is well formed, the
    # stack-derived schedule reproduces it exactly
    for d in (1, 2):
        for logn in range(1, 5):
            N = 1 << logn
            for logp in range(0, d * logn + 1):
                local, comm, s = stage_split(N, d, 1 << logp)
                expect = [0] * local
                left = logp
                for i in range(comm):
                    k = s if (i == 0 and s) else min(d, left)
                    expect.append(k)
                    left -= k
                assert stage_schedule(N, d, 1 << logp) == expect


def test_region_coords_rejects_too_fine_stack():
    _, dy = init_bisection_stacks(1, 8)
    with pytest.raises(ValueError):
        region_coords(dy, 0, 1, 2)

