"""End-to-end butterfly evaluation against brute-force and FFT oracles."""

from __future__ import annotations

import concurrent.futures
import functools
import os
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import bfly.engine
from bfly.engine import (
    AllZeroReferenceError,
    ChebEngine,
    IdEngine,
    SourceSet,
    direct_apply,
    make_engine,
    rel_sup_error,
)
from bfly.chebyshev import grid_points
from bfly.costs import CostLedger, CostParams
from bfly.geometry import DyadicKey, block_coords, leaf_coords, leaf_order, leaf_runs
from bfly.parallel import butterfly_apply, modeled_time, simulate_parallel
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


def test_sources_reject_positions_without_coordinates():
    # a dimension-0 source set would reach simulate_parallel, which fails
    # inside numpy at p = 1 and with a process-count error at p = 2
    for pos, g in ((np.zeros((3, 0)), np.ones(3)), (np.zeros((0, 0)), np.zeros(0))):
        with pytest.raises(ValueError, match="dimension 0"):
            SourceSet(pos, g)


def test_sources_reject_positions_that_are_not_a_matrix():
    # (3, 2, 2) positions used to pass as three sources of dimension 2, and
    # simulate_parallel then failed inside numpy
    for shape in ((3, 2, 2), (1, 1, 1), (2, 0, 3)):
        with pytest.raises(ValueError, match=r"shape \(" + ", ".join(map(str, shape)) + r"\)"):
            SourceSet(np.full(shape, 0.5), np.ones(shape[0]))


def test_sources_reject_strengths_that_are_not_a_vector():
    # (5, 2) strengths for ten positions used to pass as ten strengths
    for pos, shape in ((np.full((10, 2), 0.5), (5, 2)), (np.full((10, 1), 0.5), (10, 1)), (np.full((1, 1), 0.5), ())):
        with pytest.raises(ValueError, match=re.escape(f"strengths have shape {shape}")):
            SourceSet(pos, np.ones(shape))


def leaf_bins(positions, level):
    """{leaf coordinates: source indices} from the id engine's leaf sort."""
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
    # pair of 2d q^(d+1) + 3r, the re-interpolation one dimension at a time
    rng = np.random.default_rng(151 + d)
    s = random_sources(rng, 3 * N**d // 2, d=d)
    field = butterfly_apply(s, get_phase("fourier"), N, q=q)
    r, L = q**d, N.bit_length() - 1
    counts = np.array([len(idx) for idx in leaf_bins(s.positions, L).values()])
    init = 2**d * int(np.sum(2 * counts * r + counts + r))
    expect = init + 2**d * N**d * r + (L - 1) * 2**d * N**d * (2 * d * q ** (d + 1) + 3 * r)
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
    # both inits run stage 0: the pairs of the root's two children and the
    # parents of the leaves, after the weights in cheb's width-first level
    # and ahead of them in id's
    for backend, cls, pairs in (("cheb", ChebEngine, slice(1, 3)), ("id", IdEngine, slice(0, 2))):
        eng = make_engine(phase, 1, 8, s, q=4, backend=backend)
        assert isinstance(eng, cls)
        values = eng.init_blocks(s.strengths, CostLedger(CostParams()))
        assert values.shape[pairs] == (2, 4)
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


@pytest.mark.parametrize(
    "kwargs, name",
    [
        (dict(q=1.5), "q"),
        (dict(q=0), "q"),
        (dict(backend="id", tol=2.0), "tol"),
        (dict(tol=float("nan")), "tol"),
        (dict(backend="id", tol=-1.0), "tol"),
        (dict(backend="id", rows_per_dim=0), "rows_per_dim"),
        (dict(rows_per_dim=2.0), "rows_per_dim"),
        (dict(q=True), "q"),
        (dict(backend="id", rows_per_dim=True), "rows_per_dim"),
        (dict(q=False), "q"),
        (dict(backend="id", rows_per_dim=False), "rows_per_dim"),
        (dict(q=np.int64(0)), "q"),
        (dict(backend="id", rows_per_dim=np.int64(-2)), "rows_per_dim"),
        (dict(q=np.int64(4)), None),
        (dict(backend="id", rows_per_dim=np.int64(3)), None),
        (dict(d=1.0), "d"),
        (dict(backend="id", d=np.float64(1)), "d"),
        (dict(d=True), "d"),
        (dict(d=0), "d"),
        (dict(d=np.int64(1)), None),
    ],
)
def test_make_engine_names_a_bad_argument(kwargs, name, no_kept):
    # each used to fail deep inside (q=1.5 or True: a TypeError; id at
    # tol=2.0: a reshape error; d=1.0 in the solve, np.float64(1) in a
    # shift) or to run silently (tol nan or -1 at full rank,
    # rows_per_dim=True or d=True as 1); a numpy integer is taken as the int
    s = random_sources(np.random.default_rng(9), 10)
    args = {"d": 1, "N": 8, "sources": s, **kwargs}
    if name is None:
        engine = make_engine(get_phase("fourier"), **args)
        for key, value in kwargs.items():
            if key != "backend":
                assert type(getattr(engine, key)) is int and getattr(engine, key) == value
        return
    with pytest.raises(ValueError, match=f"^{name}=") as err:
        make_engine(get_phase("fourier"), **args)
    if isinstance(kwargs[name], (int, np.integer)) and not isinstance(kwargs[name], bool):
        assert str(err.value).endswith("is not an integer >= 1")  # an integer below 1


@pytest.mark.parametrize("name", ["N", "p"])
@pytest.mark.parametrize("value", [np.int64(8), np.int32(8), 8.0, True, "8", 6], ids=repr)
def test_N_and_p_take_any_integer_and_name_anything_else(name, value):
    # np.int64 used to raise AttributeError (no bit_length), also in
    # modeled_time, 8.0 a TypeError from &, True as N a TypeError from
    # range, and True as p ran as p = 1
    s = random_sources(np.random.default_rng(11), 40, d=2)
    phase = get_phase("fourier")
    args = {"N": 8, "p": 8, name: value}

    def solve(N, p):
        res = simulate_parallel(s, phase, N, p=p, q=4)
        return res.field.values, res.ledgers, res.owners, res.schedule

    def model(N, p):
        return modeled_time(16, N, 2, p, 1e-6, 1e-9, 1e-10)

    if isinstance(value, np.integer):
        got, want = solve(**args), solve(8, 8)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        assert np.array_equal(got[2], want[2]) and got[3] == want[3]
        assert model(**args) == model(8, 8)
        if name == "N":
            f = butterfly_apply(s, phase, value, q=4)
            assert np.array_equal(f.values, butterfly_apply(s, phase, 8, q=4).values)
            assert type(f.N) is int and type(make_engine(phase, 2, value, s).N) is int
    else:
        with pytest.raises(ValueError, match=f"^{name}="):
            solve(**args)
        if type(value) is not int:  # modeled_time checks no power of two
            with pytest.raises(ValueError, match=f"^{name}="):
                model(**args)
        if name == "N":
            with pytest.raises(ValueError, match="^N="):
                butterfly_apply(s, phase, value)
            with pytest.raises(ValueError, match="^N="):
                make_engine(phase, 2, value, s)


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
        maps = np.zeros((room, len(kids)) + out_ranks.shape + (width,), dtype=complex)
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
                    maps[(slice(0, len(cols)), n) + pair + (slice(0, block.shape[1]),)] = block
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


@pytest.mark.parametrize("workers", [1, 2, 5], ids=lambda w: f"workers{w}")
@pytest.mark.parametrize(
    "name,d,N,tol,sparse",
    [
        ("fourier", 1, 64, 1e-8, False),
        ("fourier", 2, 16, 1e-7, True),
        ("hyp-radon", 2, 8, 1e-7, False),
        ("gen-radon", 3, 4, 1e-6, False),
    ],
)
def test_id_precompute_matches_per_pair_sampling_bits(name, d, N, tol, sparse, workers, monkeypatch):
    # the precompute's pool gets one worker per usable core; more workers
    # than cores, switching often, interleave the tasks' writes the most
    monkeypatch.setattr(bfly.engine, "_usable_cores", lambda: workers)
    rng = np.random.default_rng(59 + d + N)
    s = sparse_leaf_sources(rng, d, N) if sparse else random_sources(rng, 6 * N**d, d=d)
    if sparse:
        leaves = leaf_coords(s.positions, N.bit_length() - 1)
        counts = np.bincount(np.ravel_multi_index(tuple(leaves.T), (N,) * d), minlength=N**d)
        assert np.any(counts == 0) and np.any(counts == 1)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        eng = IdEngine(get_phase(name), d, N, tol, 4, s)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads  # the pool's workers are joined
    if sparse:
        # stage >= 1 samples one family (A, B_p) at a time: here some have no
        # stacked skeleton at all, and some mix empty and non-empty children
        kinds = set()
        for ranks in eng._ranks[1:-1]:
            n_a, n_b = ranks.shape[0], ranks.shape[-1]
            per_child = ranks.reshape((n_a,) * d + (n_b // 2, 2) * d)
            per_child = per_child.transpose(tuple(range(d)) + tuple(range(d, 3 * d, 2)) + tuple(range(d + 1, 3 * d, 2)))
            empty = per_child.reshape(-1, 2**d) == 0
            kinds |= {"empty"} if np.any(np.all(empty, axis=1)) else set()
            kinds |= {"mixed"} if np.any(np.any(empty, axis=1) & ~np.all(empty, axis=1)) else set()
        assert kinds == {"empty", "mixed"}
    want = per_pair_precompute(eng)
    for attr in ("_interp", "_final_ranks", "_final_skeleton"):
        got = getattr(eng, attr)
        assert got.shape == want[attr].shape and np.array_equal(got, want[attr]), attr
    for attr in ("_ranks", "_maps"):
        assert len(getattr(eng, attr)) == len(want[attr]), attr
        for level, (got, ref) in enumerate(zip(getattr(eng, attr), want[attr])):
            assert got.shape == ref.shape and np.array_equal(got, ref), (attr, level)
    # the stages multiply with the maps as the precompute laid them out:
    # rows, then children, then pairs, then the child weights, cut without
    # a copy
    assert all(m.flags.c_contiguous for m in eng._maps)
    for level, maps in enumerate(eng._maps):
        width_in, width_out = (int(np.max(r, initial=0)) for r in eng._ranks[level : level + 2])
        assert maps.shape == (width_out, 2**d) + eng._ranks[level + 1].shape + (width_in,), level


@pytest.mark.parametrize("d,N,sparse", [(1, 32, False), (1, 16, True), (2, 8, False), (2, 16, True)])
def test_id_stage_skeletons_are_the_identity_columns_of_the_stacked_children(d, N, sparse, monkeypatch):
    # every stage's pair recompresses its children's stacked skeleton
    # points: its own are some of them, and its map carries each of those
    # stacked weights unchanged into its own slot
    levels = {}
    padded = IdEngine._padded_skeleton

    def recorded(self, level, width):
        levels[level] = padded(self, level, width)  # filled in place by the build
        return levels[level]

    monkeypatch.setattr(IdEngine, "_padded_skeleton", recorded)
    rng = np.random.default_rng(83 + d + N)
    s = sparse_leaf_sources(rng, d, N) if sparse else random_sources(rng, 6 * N**d, d=d)
    eng = IdEngine(get_phase("fourier"), d, N, 1e-7, 4, s)
    kids = [tuple((n >> k) & 1 for k in range(d)) for n in range(1 << d)]
    stored = empty = 0
    for level, maps in enumerate(eng._maps):
        ranks, out_ranks = eng._ranks[level], eng._ranks[level + 1]
        for pair in np.ndindex(*out_ranks.shape):
            ac, bp = pair[:d], pair[d:]
            ins = [tuple(c // 2 for c in ac) + tuple(2 * b + o for b, o in zip(bp, kid)) for kid in kids]
            stacked = np.concatenate([levels[level][p][: ranks[p]] for p in ins])
            rank = out_ranks[pair]
            if not len(stacked):
                assert rank == 0
                empty += 1
                continue
            Z = np.concatenate([maps[(slice(0, rank), n) + pair + (slice(0, ranks[p]),)] for n, p in enumerate(ins)], 1)
            # the stacked point each skeleton point is, found by its coordinates
            same = np.all(levels[level + 1][pair][:rank, None, :] == stacked[None, :, :], axis=2)
            assert np.all(same.sum(axis=1) == 1), (level, pair)
            cols = np.argmax(same, axis=1)
            assert np.array_equal(Z[:, cols], np.eye(rank)), (level, pair)
            stored += 1
    assert stored and (empty > 0) == sparse


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
@pytest.mark.parametrize("N,tasks", [(1, 1), (2, 1), (16, 8)])
def test_id_precompute_pool_has_a_worker_per_usable_core(N, tasks, monkeypatch, no_kept):
    # at most one per task of a stage: every stage has one per family,
    # (N/2)^d of them, and N = 1 its one leaf
    sizes = []
    pool = concurrent.futures.ThreadPoolExecutor

    def sized(max_workers):
        sizes.append(max_workers)
        return pool(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", sized)
    s = random_sources(np.random.default_rng(67), 40)
    make_engine(get_phase("fourier"), 1, N, s, backend="id")
    # and with more cores than families, on other sources, which
    # make_engine does not have a set-up for
    monkeypatch.setattr(bfly.engine, "_usable_cores", lambda: 64)
    make_engine(get_phase("fourier"), 1, N, random_sources(np.random.default_rng(68), 40), backend="id")
    assert sizes == [min(len(os.sched_getaffinity(0)), tasks), tasks]


def _nan_in_stage_1(delay):
    """The fourier phase in d = 1, NaN in the family blocks of the 32 row
    samples inside [0.5, 1): with N = 16 and 4 samples per leaf, those of
    the stage 1 families whose target box that is, each sampling its two
    children's 16 rows at once (the leaves sample all 64 rows, stage 0
    gathers from them). The block of source box [0, 0.25), the first such
    family in task order, returns after `delay` seconds."""

    def fn(xs, ys):
        out = 2.0 * np.pi * xs[..., 0] * ys[..., 0]
        x = xs[..., 0]
        if x.size != 32 or not x.min() >= 0.5:
            return out
        if ys[..., 0].max() < 0.25:
            time.sleep(delay)
        return np.full(out.shape, np.nan)

    return PhaseEvaluator("late-nan", 1, fn)


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_id_precompute_raises_the_first_failing_pairs_error(workers, monkeypatch):
    # the first of stage 1's four failing families in task order fails
    # last, so a pool that raised the first error to arrive would name
    # another family; its lone source makes its blocks (2, 16, 1), the
    # others' wider
    phase = _nan_in_stage_1(0.2)
    rng = np.random.default_rng(61)
    pos = np.append(0.1, rng.uniform(0.25, 1.0, size=95))
    s = SourceSet(pos[:, None], rng.normal(size=96) + 1j * rng.normal(size=96))
    monkeypatch.setattr(bfly.engine, "_usable_cores", lambda: workers)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="^phase 'late-nan' returned a NaN or inf on points") as err:
        make_engine(phase, 1, 16, s, backend="id")
    assert str(err.value).endswith("on points (2, 1, 16, 1) and (1, 1, 1)")
    assert threading.active_count() == threads  # the pool's workers are joined


# ---------------------------------------------------------------------------
# The id set-up make_engine keeps for the next call on the same sources
# ---------------------------------------------------------------------------


def counted_precompute(monkeypatch):
    """A list that grows by one on every IdEngine._precompute call."""
    calls = []
    precompute = IdEngine._precompute

    def counted(self, pool):
        calls.append(None)
        return precompute(self, pool)

    monkeypatch.setattr(IdEngine, "_precompute", counted)
    return calls


@pytest.mark.parametrize("p", [1, 16])
def test_a_kept_id_setup_gives_the_bits_of_a_cold_build(p, monkeypatch, no_kept):
    calls = counted_precompute(monkeypatch)
    phase_calls = []

    def fn(xs, ys):
        phase_calls.append(None)
        return get_phase("hyp-radon").fn(xs, ys)

    phase = PhaseEvaluator("hyp-radon", 2, fn)
    rng = np.random.default_rng(71)
    first = random_sources(rng, 300, d=2)
    again = SourceSet(first.positions.copy(), rng.normal(size=300) + 1j * rng.normal(size=300))
    before = simulate_parallel(first, phase, 8, p=p, backend="id")
    del phase_calls[:]
    hit = simulate_parallel(again, phase, 8, p=p, backend="id")
    assert len(calls) == 1  # the second solve took the first one's set-up
    assert len(phase_calls) == 1  # its probe
    assert not np.array_equal(hit.field.values, before.field.values)  # on its own strengths
    bfly.engine._kept = None
    cold = simulate_parallel(again, phase, 8, p=p, backend="id")
    assert len(calls) == 2
    for attr in ("values", "skeleton", "ranks"):
        assert np.array_equal(getattr(hit.field, attr), getattr(cold.field, attr)), attr
    assert hit.ledgers == cold.ledgers and hit.field.ledger == cold.field.ledger
    assert np.array_equal(hit.owners, cold.owners) and hit.schedule == cold.schedule


class Scaled:
    """The fourier phase times a scale that can be changed after the
    evaluator holding it is made."""

    def __init__(self, scale):
        self.scale = scale

    def __call__(self, xs, ys):
        return self.scale * get_phase("fourier").fn(xs, ys)


def _moved_bit(inputs):
    inputs["positions"] = inputs["positions"].copy()
    inputs["positions"][1, 0] = np.nextafter(inputs["positions"][1, 0], 1.0)


def _negative_zero(inputs):
    inputs["positions"] = inputs["positions"].copy()
    inputs["positions"][0, 0] = -0.0  # equal to 0.0 as a number


def _permuted(inputs):
    perm = np.random.default_rng(0).permutation(len(inputs["positions"]))
    inputs["positions"], inputs["strengths"] = inputs["positions"][perm], inputs["strengths"][perm]


def _edited_in_place(inputs):
    inputs["positions"][2, 0] *= 0.5  # the array the kept set-up was built from


def _new_phase_object(inputs):
    inputs["phase"] = PhaseEvaluator(inputs["phase"].name, 1, inputs["phase"].fn)


def _changed_phase_function(inputs):
    inputs["phase"].fn.scale = 2.0


MISSES = {
    "one-bit-of-a-position": _moved_bit,
    "zero-to-negative-zero": _negative_zero,
    "permuted-sources": _permuted,
    "positions-edited-in-place": _edited_in_place,
    "tol": lambda inputs: inputs.update(tol=1e-5),
    "rows_per_dim": lambda inputs: inputs.update(rows_per_dim=5),
    "N": lambda inputs: inputs.update(N=8),
    "phase-object": _new_phase_object,
    "phase-function": _changed_phase_function,
}


@pytest.mark.parametrize("change", sorted(MISSES))
def test_a_kept_id_setup_serves_only_its_own_inputs(change, monkeypatch, no_kept):
    calls = counted_precompute(monkeypatch)
    rng = np.random.default_rng(73)
    positions = rng.uniform(size=(64, 1))
    positions[0, 0] = 0.0
    inputs = dict(
        phase=PhaseEvaluator("scaled", 1, Scaled(1.0)), N=16, tol=1e-7, rows_per_dim=4,
        positions=positions, strengths=rng.normal(size=64) + 1j * rng.normal(size=64),
    )

    def engine():
        kw = dict(inputs)
        sources = SourceSet(kw.pop("positions"), kw.pop("strengths"))
        return make_engine(d=1, sources=sources, backend="id", **kw), sources

    first, sources = engine()
    assert np.shares_memory(sources.positions, positions)  # the caller's own array
    # the same inputs take the kept engine itself
    hit, _ = engine()
    assert len(calls) == 1 and hit is first
    MISSES[change](inputs)
    eng, sources = engine()
    assert len(calls) == 2 and bfly.engine._kept.setup is eng
    kw = {k: inputs[k] for k in ("phase", "N", "tol", "rows_per_dim")}
    cold = IdEngine(d=1, sources=sources, **kw)
    for attr in ("_interp", "_final_ranks", "_final_skeleton"):
        assert np.array_equal(getattr(eng, attr), getattr(cold, attr)), attr

    def field(e):
        values = e.init_blocks(sources.strengths, CostLedger(CostParams()))
        for level in range(1, e.L):
            values = e.stage(level, values, CostLedger(CostParams()))
        return e.make_field(values).values

    assert np.array_equal(field(eng), field(cold))
    for attr in ("_ranks", "_maps"):
        assert all(np.array_equal(a, b) for a, b in zip(getattr(eng, attr), getattr(cold, attr), strict=True)), attr


def test_a_failing_id_build_keeps_nothing(no_kept):
    rng = np.random.default_rng(61)
    make_engine(get_phase("fourier"), 1, 16, random_sources(rng, 96), backend="id")
    assert bfly.engine._kept is not None
    pos = np.append(0.1, rng.uniform(0.25, 1.0, size=95))
    s = SourceSet(pos[:, None], rng.normal(size=96) + 1j * rng.normal(size=96))
    with pytest.raises(ValueError, match="^phase 'late-nan' returned a NaN or inf on points"):
        make_engine(_nan_in_stage_1(0.0), 1, 16, s, backend="id")
    assert bfly.engine._kept is None


def test_kept_id_arrays_and_the_id_field_refuse_writes(no_kept):
    field = butterfly_apply(random_sources(np.random.default_rng(79), 200, d=2), get_phase("fourier"), 8, backend="id")
    eng = bfly.engine._kept.setup
    assert field.skeleton is eng._final_skeleton and field.ranks is eng._final_ranks
    for a in [eng._interp, *eng._ranks, *eng._maps, eng._final_ranks, eng._final_skeleton]:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_threads_share_the_kept_id_engine(no_kept):
    # four threads, more than the cores, solve at once on the positions of
    # one kept id engine, two on each of two strength vectors, the
    # interpreter switching threads as often as it can: each gets the bits
    # of its solve run alone, none builds, and no solve writes into the
    # engine, so no interleaving could mix them
    rng = np.random.default_rng(97)
    positions = rng.uniform(size=(256, 2))
    problems = [SourceSet(positions, rng.normal(size=256) + 1j * rng.normal(size=256)) for _ in range(2)]
    phase = get_phase("fourier")
    alone = [butterfly_apply(s, phase, 8, backend="id") for s in problems]
    assert not np.array_equal(alone[0].values, alone[1].values)
    kept = bfly.engine._kept.setup
    assert make_engine(phase, 2, 8, problems[1], backend="id") is kept
    for a in (*kept._runs, kept._init_flops, *kept._flops):
        assert not a.flags.writeable
    state = dict(vars(kept))
    barrier = threading.Barrier(4)
    results, errors = {}, []

    def run(t):
        try:
            barrier.wait(timeout=60)
            results[t] = [butterfly_apply(problems[t % 2], phase, 8, backend="id") for _ in range(4)]
        except Exception as err:  # noqa: BLE001 - reported by the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and sorted(results) == [0, 1, 2, 3]
    assert bfly.engine._kept.setup is kept
    assert vars(kept).keys() == state.keys() and all(vars(kept)[k] is v for k, v in state.items())
    for t, fields in results.items():
        for field in fields:
            assert np.array_equal(field.values, alone[t % 2].values) and field.ledger == alone[t % 2].ledger


def test_id_stage_holds_its_output_and_one_child_contribution():
    # an id stage adds its children's products into the first one as each
    # is made, and each child multiplies the input's weights broadcast onto
    # the target children: the output and one child's product, which has
    # the output's size. A copy of the weights repeated onto the target
    # children would add about one more output. The slack holds the flop
    # charge's integer arrays over the pairs (about 4 KB here)
    slack = 16 << 10
    rng = np.random.default_rng(191)
    s = random_sources(rng, 1024, d=2)
    eng = IdEngine(get_phase("fourier"), 2, 16, 1e-7, 4, s)
    values = eng.init_blocks(s.strengths, CostLedger(CostParams()))
    for level in range(1, eng.L):
        tracemalloc.start()
        try:
            out = eng.stage(level, values, CostLedger(CostParams()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes > 3 * slack, level
        assert peak <= 2 * out.nbytes + slack, (level, peak, out.nbytes)
        values = out


def test_a_new_id_setup_releases_the_kept_one_before_it_builds(monkeypatch, no_kept):
    # one build of d = 2, N = 8 and 256 sources on an empty slot, then the
    # same build right after another: a set-up holds about 7 MB as traced
    # (tracemalloc counts its maps' untouched room too), so one still held
    # while the next is built would put the second peak far above the first.
    # One worker, so that the peaks do not depend on how the pool's tasks
    # overlap (about +-1.6 MB with 8 workers on 2 cores, 0.06 MB with one)
    monkeypatch.setattr(bfly.engine, "_usable_cores", lambda: 1)
    slack = 1 << 20
    phase = get_phase("fourier")

    def build(seed):
        make_engine(phase, 2, 8, random_sources(np.random.default_rng(seed), 256, d=2), backend="id")

    build(80)  # scipy and the library's caches are loaded before the trace
    bfly.engine._kept = None
    tracemalloc.start()
    try:
        build(82)
        _, alone = tracemalloc.get_traced_memory()
        bfly.engine._kept = None
        build(81)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        build(82)
        _, after = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held > 4 * slack
    assert after <= alone + slack


def cold_solve(sources, phase, backend):
    """A solve on an empty slot; the field's arrays and the ledgers."""
    bfly.engine._kept = None
    return solved(simulate_parallel(sources, phase, 8, q=4, backend=backend))


def solved(res):
    f = res.field
    return (f.values, f.skeleton, f.ranks), (f.ledger, res.ledgers)


def same_bits(got, want):
    arrays, ledgers = got
    return ledgers == want[1] and all(
        (a is None and b is None) or np.array_equal(a, b) for a, b in zip(arrays, want[0], strict=True)
    )


def test_one_slot_serves_both_backends(monkeypatch, no_kept):
    # an id build, then two cheb solves and an id solve on the first
    # sources: the first cheb solve releases the id set-up and keeps its
    # factors, the second takes them, and the id solve builds again
    monkeypatch.setattr(bfly.engine, "_usable_cores", lambda: 1)
    calls = counted_precompute(monkeypatch)
    phase = get_phase("fourier")
    rng = np.random.default_rng(83)
    first, other = random_sources(rng, 256, d=2), random_sources(rng, 256, d=2)
    runs = [(first, "id"), (other, "cheb"), (other, "cheb"), (first, "id")]
    want = [cold_solve(s, phase, backend) for s, backend in runs]
    bfly.engine._kept = None
    del calls[:]
    got = []
    for s, backend in runs:
        got.append(solved(simulate_parallel(s, phase, 8, q=4, backend=backend)))
        assert bfly.engine._kept.key[0] == backend
    assert bfly.engine._kept.setup is not None and len(calls) == 2
    assert all(same_bits(g, w) for g, w in zip(got, want))
    # a cheb solve right after an id build frees the id set-up before it
    # makes anything: from its first phase call on, the traced memory
    # stays below what the set-up alone held
    bfly.engine._kept = None
    first_call = []

    def fn(xs, ys):
        if not first_call:
            first_call.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        return get_phase("fourier").fn(xs, ys)

    watched = PhaseEvaluator("fourier", None, fn)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        make_engine(phase, 2, 8, first, backend="id")
        setup = tracemalloc.get_traced_memory()[0] - base
        simulate_parallel(other, watched, 8, q=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert setup > 4 << 20
    assert first_call[0] - base < setup / 4 and peak - base < setup


def test_threads_solving_both_backends_get_the_serial_bits(no_kept):
    # four threads each alternate cheb and id solves on two problems, with
    # the interpreter switching threads as often as it can: each reads and
    # fills the one slot, which no lock guards
    rng = np.random.default_rng(89)
    problems = [(random_sources(rng, 128, d=2), get_phase("fourier")), (random_sources(rng, 128, d=2), get_phase("hyp-radon"))]
    jobs = [(i, backend) for i in range(2) for backend in ("cheb", "id")]
    want = {job: cold_solve(*problems[job[0]], job[1]) for job in jobs}
    bfly.engine._kept = None
    results, errors = [], []

    def run(t):
        try:
            for k in range(6):
                job = (((t + k) // 2) % 2, ("cheb", "id")[(t + k) % 2])
                s, phase = problems[job[0]]
                results.append((job, solved(simulate_parallel(s, phase, 8, q=4, backend=job[1]))))
        except Exception as err:  # noqa: BLE001 - reported by the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and len(results) == 24
    assert {job for job, _ in results} == set(jobs)
    assert all(same_bits(got, want[job]) for job, got in results)
