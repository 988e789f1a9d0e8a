"""End-to-end butterfly evaluation against brute-force and FFT oracles."""

from __future__ import annotations

import functools

import numpy as np
import pytest

import bfly.engine
from bfly.engine import (
    AllZeroReferenceError,
    ChebEngine,
    IdEngine,
    SourceSet,
    butterfly_apply,
    direct_apply,
    make_engine,
    rel_sup_error,
)
from bfly.chebyshev import grid_points
from bfly.costs import CostLedger, CostParams
from bfly.geometry import DyadicKey, block_coords, leaf_coords, leaf_order, leaf_runs
from bfly.phases import PhaseEvaluator, get_phase, kernel_matrix
from test_lowrank import economic_id

FLAT = PhaseEvaluator("flat", None, lambda x, y: np.zeros(np.broadcast_shapes(x.shape, y.shape)[:-1]))


def random_sources(rng, n, d=1):
    pos = rng.uniform(size=(n, d))
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    return SourceSet(pos, g)


# ---------------------------------------------------------------------------
# SourceSet
# ---------------------------------------------------------------------------


def test_sources_validate_cube_and_counts():
    with pytest.raises(ValueError):
        SourceSet(np.array([[1.2]]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        SourceSet(np.array([[-0.1]]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        SourceSet(np.array([[0.5], [0.6]]), np.array([1.0 + 0j]))
    s = SourceSet(np.array([[0.0], [1.0]]), np.array([1, 2]))
    assert s.dim == 1 and s.count == 2
    assert s.strengths.dtype == complex


def test_sources_reject_non_finite():
    for pos, g in (
        ([[np.nan]], [1.0]),
        ([[np.inf]], [1.0]),
        ([[0.5, np.nan]], [1.0]),
        ([[0.5]], [np.inf]),
        ([[0.5]], [complex(1.0, np.nan)]),
    ):
        with pytest.raises(ValueError, match="finite"):
            SourceSet(np.array(pos), np.array(g))


def leaf_bins(positions, level):
    """{leaf coordinates: source indices} from the engines' shared leaf sort."""
    order, leaves = leaf_order(np.asarray(positions, dtype=float), level)
    sorted_leaves = leaves[order]
    if order.size == 0:
        return {}
    _, starts = leaf_runs(sorted_leaves, (0,) * leaves.shape[1], (1 << level,) * leaves.shape[1])
    return {tuple(sorted_leaves[i]): run for i, run in zip(starts, np.split(order, starts[1:]))}


def test_binning_boundaries():
    # faces belong to the box on the larger side; 1.0 folds into the last box
    pos = np.array([[0.0], [0.25], [0.2499999], [0.5], [1.0]])
    assert leaf_coords(pos, 2).reshape(-1).tolist() == [0, 1, 0, 2, 3]
    bins = leaf_bins(pos, 2)
    assert list(bins) == [(0,), (1,), (2,), (3,)]
    assert bins[(0,)].tolist() == [0, 2]  # a box's sources keep their order
    assert bins[(1,)].tolist() == [1]
    assert bins[(2,)].tolist() == [3]
    assert bins[(3,)].tolist() == [4]


def test_binning_partitions_everything():
    rng = np.random.default_rng(71)
    s = random_sources(rng, 200, d=2)
    bins = leaf_bins(s.positions, 3)
    seen = np.sort(np.concatenate(list(bins.values())))
    assert np.array_equal(seen, np.arange(200))
    assert list(bins) == sorted(bins)  # canonical order
    for coords, idx in bins.items():
        lo = np.asarray(coords) / 8.0
        pos = s.positions[idx]
        assert np.all(pos >= lo - 1e-15)
        assert np.all((pos < lo + 1.0 / 8.0) | (pos == 1.0))


def test_binning_2d_coords():
    assert leaf_coords(np.array([[0.3, 0.8]]), 1).tolist() == [[0, 1]]
    assert list(leaf_bins(np.array([[0.3, 0.8]]), 1)) == [(0, 1)]


def test_empty_sources_bin():
    order, leaves = leaf_order(np.zeros((0, 1)), 3)
    assert order.size == 0 and leaves.shape == (0, 1)
    assert leaf_bins(np.zeros((0, 1)), 3) == {}


# ---------------------------------------------------------------------------
# direct summation oracle
# ---------------------------------------------------------------------------


def test_direct_flat_phase_sums_strengths():
    rng = np.random.default_rng(73)
    s = random_sources(rng, 17)
    out = direct_apply(s, FLAT, np.array([[0.1], [0.9]]))
    assert np.allclose(out, np.sum(s.strengths))


def test_direct_matches_inverse_fft():
    # sources on the lattice k/n with integer targets turn the sum into an
    # inverse DFT, an independent oracle for the oracle
    rng = np.random.default_rng(79)
    n = 16
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    s = SourceSet((np.arange(n) / n)[:, None], g)
    targets = np.arange(n, dtype=float)[:, None]
    out = direct_apply(s, get_phase("fourier"), targets)
    expect = n * np.fft.ifft(g)
    assert np.max(np.abs(out - expect)) <= 1e-10 * np.max(np.abs(expect))


def test_direct_empty_cases():
    s = SourceSet(np.zeros((0, 1)), np.zeros(0, dtype=complex))
    assert direct_apply(s, FLAT, np.array([[0.5]])).tolist() == [0j]
    s2 = SourceSet(np.array([[0.5]]), np.array([1.0 + 0j]))
    assert direct_apply(s2, FLAT, np.zeros((0, 1))).shape == (0,)


def test_direct_chunking_consistent():
    # large enough that the evaluation runs in more than one chunk
    rng = np.random.default_rng(83)
    s = random_sources(rng, 2500)
    targets = rng.uniform(size=(900, 1))
    out = direct_apply(s, get_phase("fourier"), targets)
    whole = kernel_matrix(get_phase("fourier"), targets, s.positions) @ s.strengths
    assert np.allclose(out, whole, rtol=1e-12)


@pytest.mark.parametrize("entries", [1 << 13, 1 << 19])
def test_direct_chunk_size_keeps_the_bits(entries, monkeypatch):
    # 497 targets x 1000 sources: chunks of 8 rows, the last one lone, and
    # of 497 rows against the default's 32
    rng = np.random.default_rng(89)
    s = random_sources(rng, 1000, d=2)
    targets = rng.uniform(size=(497, 2))
    ref = direct_apply(s, get_phase("fourier"), targets)
    monkeypatch.setattr(bfly.engine, "_DIRECT_CHUNK", entries)
    assert np.array_equal(direct_apply(s, get_phase("fourier"), targets), ref)


def test_rel_sup_error():
    assert rel_sup_error(np.array([1.0 + 0j]), np.array([1.0 + 0j])) == 0.0
    assert rel_sup_error(np.array([1.1 + 0j, 0j]), np.array([1.0 + 0j, 2.0 + 0j])) == pytest.approx(1.0)
    with pytest.raises(AllZeroReferenceError):
        rel_sup_error(np.array([1.0 + 0j]), np.array([0j]))
    with pytest.raises(AllZeroReferenceError):
        rel_sup_error(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        rel_sup_error(np.zeros(2), np.zeros(3))


# ---------------------------------------------------------------------------
# butterfly_apply
# ---------------------------------------------------------------------------


def test_zero_strengths_give_zero_field():
    rng = np.random.default_rng(89)
    s = SourceSet(rng.uniform(size=(20, 1)), np.zeros(20, dtype=complex))
    field = butterfly_apply(s, get_phase("fourier"), 8, q=5)
    pts = rng.uniform(size=(10, 1))
    assert np.allclose(field.evaluate(pts), 0.0)


def test_single_source_closed_form_both_backends():
    rng = np.random.default_rng(97)
    phase = get_phase("fourier")
    g0 = 1.0 + 2.0j
    s = SourceSet(np.array([[0.37]]), np.array([g0]))
    pts = rng.uniform(size=(20, 1))
    expect = np.exp(2j * np.pi * pts[:, 0] * 0.37) * g0
    cheb_field = butterfly_apply(s, phase, 16, q=8)
    assert rel_sup_error(cheb_field.evaluate(pts), expect) <= 1e-8
    id_field = butterfly_apply(s, phase, 16, backend="id", tol=1e-7)
    assert rel_sup_error(id_field.evaluate(pts), expect) <= 1e-6


def test_linearity_in_strengths():
    rng = np.random.default_rng(101)
    pos = rng.uniform(size=(40, 1))
    g1 = rng.normal(size=40) + 1j * rng.normal(size=40)
    g2 = rng.normal(size=40) + 1j * rng.normal(size=40)
    phase = get_phase("fourier")
    pts = rng.uniform(size=(15, 1))
    f1 = butterfly_apply(SourceSet(pos, g1), phase, 16, q=6).evaluate(pts)
    f2 = butterfly_apply(SourceSet(pos, g2), phase, 16, q=6).evaluate(pts)
    f12 = butterfly_apply(SourceSet(pos, g1 + g2), phase, 16, q=6).evaluate(pts)
    assert np.max(np.abs(f12 - (f1 + f2))) <= 1e-12 * np.max(np.abs(f12))


def scaled_phase(name, N):
    """Phi_N = N * Phi: the kernel oscillates N times more as the tree gets N
    leaves per dimension, the regime of the paper."""
    base = get_phase(name)
    return PhaseEvaluator(f"{name}-x{N}", base.dim, lambda xs, ys: N * base(xs, ys))


@pytest.mark.parametrize(
    "name,d,q,sizes,seed",
    [("fourier", 1, 8, (64, 128, 256, 512, 1024), 168), ("fourier", 2, 6, (8, 16, 32, 64), 169),
     ("hyp-radon", 2, 6, (8, 16, 32, 64), 5)],
    ids=["1-8-sizes0", "2-6-sizes1", "hyp-radon-2-6"],
)
def test_error_is_flat_in_N_at_fixed_rank(name, d, q, sizes, seed):
    # the paper's claim: with the bandwidth growing as N, a fixed rank q^d
    # keeps the error independent of N. One draw's sup error over 256
    # targets spreads by 2x from draw to draw at any one N, so each N's error
    # is the largest over five draws of 4 N^d sources and 256 targets: over
    # seeds 0-19 the largest ratio is 1.58, 1.70 and 1.86 for the three cases.
    rng = np.random.default_rng(seed)
    errs = []
    for N in sizes:
        phase = scaled_phase(name, N)
        draws = []
        for _ in range(5):
            s = random_sources(rng, 4 * N**d, d=d)
            pts = rng.uniform(size=(256, d))
            draws.append(rel_sup_error(butterfly_apply(s, phase, N, q=q).evaluate(pts), direct_apply(s, phase, pts)))
        errs.append(max(draws))
    assert max(errs) <= 2 * errs[0], errs


def test_error_decreases_with_q():
    rng = np.random.default_rng(103)
    phase = get_phase("fourier")
    s = random_sources(rng, 128)
    pts = rng.uniform(size=(40, 1))
    exact = direct_apply(s, phase, pts)
    errs = [
        rel_sup_error(butterfly_apply(s, phase, 16, q=q).evaluate(pts), exact)
        for q in (4, 6, 8)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-8


def test_backends_agree():
    rng = np.random.default_rng(107)
    phase = get_phase("fourier")
    s = random_sources(rng, 300)
    pts = rng.uniform(size=(50, 1))
    f_cheb = butterfly_apply(s, phase, 32, q=8).evaluate(pts)
    f_id = butterfly_apply(s, phase, 32, backend="id", tol=1e-7).evaluate(pts)
    exact = direct_apply(s, phase, pts)
    assert rel_sup_error(f_cheb, exact) <= 1e-6
    assert rel_sup_error(f_id, exact) <= 1e-5
    assert np.max(np.abs(f_cheb - f_id)) / np.max(np.abs(exact)) <= 1e-5


def test_trivial_tree_sizes():
    # N = 1 runs zero stages: its init gives the final weights on the root's
    # grid; N = 2 runs one stage, the child sum
    rng = np.random.default_rng(109)
    phase = get_phase("fourier")
    s = random_sources(rng, 30)
    pts = rng.uniform(size=(12, 1))
    exact = direct_apply(s, phase, pts)
    for N, tol in ((1, 1e-4), (2, 1e-6)):
        f = butterfly_apply(s, phase, N, q=10)
        assert rel_sup_error(f.evaluate(pts), exact) <= tol
    # the sampled backend resolves rank only up to its row count, and the
    # single N=1 pair needs more than the default 4 rows per dimension
    f_id = butterfly_apply(s, phase, 1, backend="id", tol=1e-8, rows_per_dim=12)
    assert rel_sup_error(f_id.evaluate(pts), exact) <= 1e-5


def test_invalid_configuration_rejected():
    rng = np.random.default_rng(113)
    s = random_sources(rng, 4)
    with pytest.raises(ValueError):
        butterfly_apply(s, get_phase("fourier"), 3)
    with pytest.raises(ValueError):
        butterfly_apply(s, get_phase("fourier"), 0)
    with pytest.raises(ValueError):
        butterfly_apply(s, get_phase("fourier"), 8, backend="dense")
    with pytest.raises(ValueError):
        butterfly_apply(s, get_phase("hyp-radon"), 8)


def test_field_structure_and_bounds():
    rng = np.random.default_rng(131)
    s = random_sources(rng, 60)
    field = butterfly_apply(s, get_phase("fourier"), 8, q=5)
    keys = field.target_keys()
    assert keys == [DyadicKey(3, (c,)) for c in range(8)]
    assert all(field.weight_vector(k).shape == (5,) for k in keys)
    assert field.ledger is not None
    assert field.ledger.flops > 0
    assert field.ledger.messages == 0
    with pytest.raises(ValueError):
        field.evaluate(np.array([[1.5]]))
    assert field.evaluate(np.zeros((0, 1))).shape == (0,)


@pytest.mark.parametrize("d,N,q", [(1, 16, 5), (2, 8, 3), (2, 16, 4), (3, 4, 3)])
def test_cheb_ledger_closed_form(d, N, q):
    # leaf init: 2nr + n + r per occupied leaf holding n sources, once for
    # each of the 2^d children of the root; stage 0: each leaf adds 2^d
    # vectors of r; each of the other L - 1 stages: 2^d contributions per
    # pair of 2r^2 + 3r
    rng = np.random.default_rng(151 + d)
    s = random_sources(rng, 3 * N**d // 2, d=d)
    field = butterfly_apply(s, get_phase("fourier"), N, q=q)
    r, L = q**d, N.bit_length() - 1
    counts = np.array([len(idx) for idx in leaf_bins(s.positions, L).values()])
    init = 2**d * int(np.sum(2 * counts * r + counts + r))
    expect = init + 2**d * N**d * r + (L - 1) * 2**d * N**d * (2 * r * r + 3 * r)
    assert 0 < counts.size < N**d  # some leaves stay empty
    assert field.ledger.flops == expect


def test_evaluate_rejects_malformed_points():
    rng = np.random.default_rng(139)
    for backend in ("cheb", "id"):
        field = butterfly_apply(random_sources(rng, 40, d=2), get_phase("fourier"), 4, q=3, backend=backend)
        with pytest.raises(ValueError, match="dimension"):
            field.evaluate(rng.uniform(size=(5, 1)))
        with pytest.raises(ValueError, match="dimension"):
            field.evaluate(rng.uniform(size=(5, 3)))
        with pytest.raises(ValueError, match="finite"):
            field.evaluate(np.array([[0.5, np.nan]]))
        with pytest.raises(ValueError, match="finite"):
            field.evaluate(np.array([[np.inf, 0.5]]))


def test_make_engine_dispatch():
    phase = get_phase("fourier")
    s = random_sources(np.random.default_rng(5), 20)
    # cheb's init already puts the leaves on the pairs of the root's two
    # children; id's leaf weights sit on the one level-0 target box
    for backend, cls, targets in (("cheb", ChebEngine, 2), ("id", IdEngine, 1)):
        eng = make_engine(phase, 1, 8, s, q=4, backend=backend)
        assert isinstance(eng, cls)
        values = eng.init_blocks(CostLedger(CostParams()))
        assert values.shape[:2] == (targets, 8)
    eng = make_engine(phase, 1, 16, s, q=6)
    assert eng.L == 4 and eng.r == 6


def test_make_engine_requires_sources():
    # an engine without sources used to fail only later, in init_blocks
    phase = get_phase("fourier")
    for backend in ("cheb", "id"):
        with pytest.raises(TypeError):
            make_engine(phase, 1, 8, backend=backend)


def test_make_engine_rejects_sources_of_another_dimension():
    # one-dimensional sources at d = 2 must not reach the phase or a broadcast
    phase = get_phase("fourier")
    s = random_sources(np.random.default_rng(7), 10)
    for backend in ("cheb", "id"):
        with pytest.raises(ValueError, match="sources have dimension 1, the engine has dimension 2"):
            make_engine(phase, 2, 8, s, q=4, backend=backend)


def test_2d_accuracy_modest_grid():
    rng = np.random.default_rng(137)
    phase = get_phase("hyp-radon")
    s = random_sources(rng, 220, d=2)
    pts = rng.uniform(size=(30, 2))
    exact = direct_apply(s, phase, pts)
    f = butterfly_apply(s, phase, 8, q=6)
    assert rel_sup_error(f.evaluate(pts), exact) <= 1e-2


# ---------------------------------------------------------------------------
# The id precompute against the per-pair sampled one
# ---------------------------------------------------------------------------


def per_pair_precompute(eng):
    """The id precompute with every factorization sampled on its own: each
    leaf and each pair of each stage evaluates its C-ordered kernel block
    and factors it through scipy's economic QR, Q included (economic_id).
    Returns the arrays IdEngine keeps, by attribute name."""
    d, L, N = eng.d, eng.L, eng.N
    sampler = functools.partial(kernel_matrix, eng.phase)
    rows = grid_points(eng.rows_per_dim, L, block_coords((0,) * d, (N,) * d))
    all_rows = rows.reshape(-1, d)
    _, starts = leaf_runs(eng._leaves, (0,) * d, (N,) * d)
    counts = np.diff(np.append(starts, len(eng._leaves)))
    room = min(int(np.max(counts, initial=0)), len(all_rows))
    ranks = np.zeros((1,) * d + (N,) * d, dtype=int)
    skeleton = eng._padded_skeleton(0, room)
    interp = np.zeros((len(eng._leaves), room), dtype=complex)
    for i, n in zip(starts, counts):
        pair = (0,) * d + tuple(eng._leaves[i])
        pos = eng._positions[i : i + n]
        cols, Z = economic_id(sampler(all_rows, pos), eng.tol)
        ranks[pair] = len(cols)
        skeleton[pair][: len(cols)] = pos[cols]
        interp[i : i + n, : len(cols)] = Z.T
    width = int(np.max(ranks))
    out = {"_interp": interp[:, :width], "_ranks": [ranks], "_maps": []}
    skeleton = skeleton[..., :width, :]
    kids = [tuple((n >> k) & 1 for k in range(d)) for n in range(1 << d)]
    for level in range(L):
        shift = L - level - 1
        room = min(eng.rows_per_dim**d << (d * shift), len(kids) * width)
        n_a, n_b = 2 << level, 1 << shift
        out_ranks = np.zeros((n_a,) * d + (n_b,) * d, dtype=int)
        out_skeleton = eng._padded_skeleton(level + 1, room)
        maps = np.zeros((room,) + out_ranks.shape + (len(kids), width), dtype=complex)
        for bp in np.ndindex(*(n_b,) * d):
            for ac in np.ndindex(*(n_a,) * d):
                ins = [tuple(c // 2 for c in ac) + tuple(2 * b + o for b, o in zip(bp, kid)) for kid in kids]
                child_ranks = [ranks[p] for p in ins]
                stacked = np.concatenate([skeleton[p][:r] for p, r in zip(ins, child_ranks)])
                if not len(stacked):
                    continue
                targets = rows[tuple(slice(c << shift, (c + 1) << shift) for c in ac)].reshape(-1, d)
                cols, Z = economic_id(sampler(targets, stacked), eng.tol)
                pair = ac + bp
                out_ranks[pair] = len(cols)
                out_skeleton[pair][: len(cols)] = stacked[cols]
                for n, block in enumerate(np.split(Z, np.cumsum(child_ranks)[:-1], axis=1)):
                    maps[(slice(0, len(cols)),) + pair + (n, slice(0, block.shape[1]))] = block
        ranks, width = out_ranks, int(np.max(out_ranks))
        skeleton = out_skeleton[..., :width, :]
        out["_ranks"].append(ranks)
        out["_maps"].append(maps[:width])
    out["_final_ranks"] = ranks.reshape((N,) * d)
    out["_final_skeleton"] = skeleton.reshape((N,) * d + skeleton.shape[-2:])
    return out


def sparse_leaf_sources(rng, d, N):
    """A dense cluster in the lower half of the cube, one source at the
    center of every third leaf of the upper half, the other leaves empty."""
    dense = rng.uniform(0.0, 0.5, size=(12 * (N // 2) ** d, d))
    upper = [c for c in np.ndindex(*(N,) * d) if c[0] >= N // 2][::3]
    single = (np.array(upper) + 0.5) / N
    pos = np.vstack([dense, single])
    return SourceSet(pos, rng.normal(size=len(pos)) + 1j * rng.normal(size=len(pos)))


@pytest.mark.parametrize(
    "name,d,N,tol,sparse",
    [
        ("fourier", 1, 64, 1e-8, False),
        ("fourier", 2, 16, 1e-7, True),
        ("hyp-radon", 2, 8, 1e-7, False),
        ("gen-radon", 3, 4, 1e-6, False),
    ],
)
def test_id_precompute_matches_per_pair_sampling_bits(name, d, N, tol, sparse):
    rng = np.random.default_rng(59 + d + N)
    s = sparse_leaf_sources(rng, d, N) if sparse else random_sources(rng, 6 * N**d, d=d)
    if sparse:
        leaves = leaf_coords(s.positions, N.bit_length() - 1)
        counts = np.bincount(np.ravel_multi_index(tuple(leaves.T), (N,) * d), minlength=N**d)
        assert np.any(counts == 0) and np.any(counts == 1)
    eng = IdEngine(get_phase(name), d, N, tol, 4, s)
    want = per_pair_precompute(eng)
    for attr in ("_interp", "_final_ranks", "_final_skeleton"):
        got = getattr(eng, attr)
        assert got.shape == want[attr].shape and np.array_equal(got, want[attr]), attr
    for attr in ("_ranks", "_maps"):
        assert len(getattr(eng, attr)) == len(want[attr]), attr
        for level, (got, ref) in enumerate(zip(getattr(eng, attr), want[attr])):
            assert got.shape == ref.shape and np.array_equal(got, ref), (attr, level)
    # the stages multiply with the maps laid out as before
    assert all(m.flags.c_contiguous for m in eng._maps)
