"""Built-in phase functions and the broadcast evaluation contract."""

from __future__ import annotations

import numpy as np
import pytest

from bfly.engine import SourceSet, butterfly_apply
from bfly.phases import (
    PhaseEvaluator,
    REGISTRY,
    get_phase,
    kernel_matrix,
    register_phase,
)


def test_fourier_values():
    ph = get_phase("fourier")
    assert ph(np.zeros((1, 1)), np.array([[0.7]]))[0] == 0.0
    val = ph(np.array([[0.5]]), np.array([[0.5]]))[0]
    assert np.isclose(val, np.pi / 2)
    x = np.array([[0.2, 0.3]])
    y = np.array([[0.4, 0.5]])
    assert np.isclose(ph(x, y), ph(y, x))


def test_fourier_any_dimension():
    ph = get_phase("fourier")
    x = np.array([[0.1, 0.2, 0.3, 0.4]])
    y = np.array([[1.0, 1.0, 1.0, 1.0]])
    assert np.isclose(ph(x, y)[0], 2 * np.pi * 1.0)


def test_hyp_radon_values():
    ph = get_phase("hyp-radon")
    x = np.array([[0.3, 0.4]])
    assert np.isclose(ph(x, np.array([[0.9, 0.0]]))[0], 0.0)  # p = 0
    assert np.isclose(ph(np.array([[1.0, 0.0]]), np.array([[0.37, 1.0]]))[0], 2 * np.pi)
    assert np.isclose(ph(x, np.array([[1.0, 1.0]]))[0], np.pi)  # 3-4-5 triangle


def test_gen_radon_values():
    ph = get_phase("gen-radon")
    x0 = np.zeros((1, 3))
    assert np.isclose(ph(x0, np.zeros((1, 3)))[0], 0.0)
    val = ph(x0, np.array([[3.0, 4.0, 0.0]]))[0]
    assert np.isclose(val, np.pi * np.sqrt(20.0))
    # x0 = x1 = 0 makes the sin terms vanish and the cos terms one
    p = np.array([[0.9, 0.4, 0.2]])
    x = np.array([[0.0, 0.0, 0.6]])
    gamma = 0.9 * 2 / 3
    kappa = 0.4 * (2 + 1) / 3
    expect = np.pi * (0.2 * 0.6 + np.hypot(gamma, kappa))
    assert np.isclose(ph(x, p)[0], expect)


def test_batch_equals_pointwise():
    rng = np.random.default_rng(3)
    for name, d in [("fourier", 2), ("hyp-radon", 2), ("gen-radon", 3)]:
        ph = get_phase(name)
        xs = rng.uniform(size=(17, d))
        ys = rng.uniform(size=(17, d))
        batch = ph(xs, ys)
        single = np.array([ph(xs[i : i + 1], ys[i : i + 1])[0] for i in range(17)])
        assert np.array_equal(batch, single)
        assert batch.shape == (17,)
        assert np.all(np.isfinite(batch)) and batch.dtype.kind == "f"


@pytest.mark.parametrize("name, d", [("fourier", 1), ("fourier", 2), ("hyp-radon", 2), ("gen-radon", 3)])
def test_broadcast_equals_paired_rows(name, d):
    # an entry of the cross product has the bits of the same pair evaluated
    # as paired rows, and a single (d,) point broadcasts against a set
    rng = np.random.default_rng(5)
    ph = get_phase(name)
    xs = rng.uniform(size=(7, d))
    ys = rng.uniform(size=(5, d))
    cross = ph(xs[:, None], ys[None])
    assert cross.shape == (7, 5)
    paired = ph(np.repeat(xs, 5, axis=0), np.tile(ys, (7, 1)))
    assert np.array_equal(cross, paired.reshape(7, 5))
    assert np.array_equal(ph(xs[2], ys), cross[2])
    assert np.array_equal(ph(xs, ys[3]), cross[:, 3])
    assert ph(xs[2], ys[3]).shape == ()
    assert ph(xs[2], ys[3]) == cross[2, 3]


def test_dimension_checks():
    ph = get_phase("hyp-radon")
    with pytest.raises(ValueError, match="hyp-radon"):
        ph(np.zeros((2, 3)), np.zeros((2, 3)))  # wrong dimension for the phase
    with pytest.raises(ValueError, match="hyp-radon"):
        ph(np.zeros((2, 2)), np.zeros((2, 3)))  # last axes differ
    with pytest.raises(ValueError, match="hyp-radon"):
        ph(np.zeros((2, 2)), np.zeros((3, 2)))  # point shapes do not broadcast
    with pytest.raises(ValueError, match="fourier"):
        get_phase("fourier")(np.zeros((4, 1)), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="fourier"):
        get_phase("fourier")(np.zeros((4, 2, 2)), np.zeros((3, 2)))


def test_paired_row_phase_is_rejected():
    # a phase written for paired (n, d) rows returns the wrong shape on
    # broadcast operands, or fails indexing a single point
    paired = PhaseEvaluator("paired", 1, lambda x, y: x[:, 0] * y[:, 0])
    with pytest.raises(ValueError, match="paired"):
        kernel_matrix(paired, np.zeros((6, 1)), np.zeros((4, 1)))
    rng = np.random.default_rng(9)
    s = SourceSet(rng.uniform(size=(20, 1)), np.ones(20))
    for backend in ("cheb", "id"):
        with pytest.raises(ValueError, match="paired"):
            butterfly_apply(s, paired, 4, q=3, backend=backend)


def test_registry_and_custom_phase():
    assert set(REGISTRY) >= {"fourier", "hyp-radon", "gen-radon"}
    with pytest.raises(KeyError):
        get_phase("nope")
    custom = PhaseEvaluator("flat", 1, lambda xs, ys: np.zeros(np.broadcast_shapes(xs.shape, ys.shape)[:-1]))
    register_phase(custom)
    try:
        assert get_phase("flat") is custom
    finally:
        del REGISTRY["flat"]


def test_kernel_matrix_cross_product():
    ph = get_phase("fourier")
    xs = np.array([[0.0], [0.5]])
    ys = np.array([[0.25], [0.5], [1.0]])
    K = kernel_matrix(ph, xs, ys)
    assert K.shape == (2, 3)
    assert np.allclose(K[0], 1.0)  # x = 0 row
    assert np.isclose(K[1, 1], np.exp(1j * np.pi / 2))
    assert np.allclose(np.abs(K), 1.0)  # unimodular kernel
