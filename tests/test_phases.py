"""Built-in phase functions and the broadcast evaluation contract."""

from __future__ import annotations

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bfly import phases
from bfly.engine import SourceSet, butterfly_apply, direct_apply
from bfly.parallel import simulate_parallel
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
    # x1 = 0: the target's first coordinate is shifted to 1 + x0
    assert np.isclose(ph(np.array([[0.5, 0.0]]), np.array([[0.37, 1.0]]))[0], 3 * np.pi)
    # sqrt(1.2^2 + 0.9^2) = 1.5
    assert np.isclose(ph(np.array([[0.2, 0.9]]), np.array([[1.0, 1.0]]))[0], 3 * np.pi)


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


def _broken(value, where_x_above=-1.0):
    """The fourier phase, with `value` wherever x[..., 0] > where_x_above."""

    def fn(xs, ys):
        out = 2.0 * np.pi * xs[..., 0] * ys[..., 0]
        return np.where(xs[..., 0] > where_x_above, value, out)

    return PhaseEvaluator("broken", 1, fn)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where_x_above", [-1.0, 0.7])
def test_non_finite_phase_raises_naming_it(value, where_x_above):
    bad = _broken(value, where_x_above)
    rng = np.random.default_rng(47)
    s = SourceSet(rng.uniform(size=(30, 1)), rng.normal(size=30))
    match = "phase 'broken' returned a NaN or inf"
    with pytest.raises(ValueError, match=match):
        bad(np.array([[0.9]]), np.array([[0.5]]))
    with pytest.raises(ValueError, match=match):
        kernel_matrix(bad, np.array([[0.1], [0.9]]), np.array([[0.5]]), order="F")
    with pytest.raises(ValueError, match=match):
        direct_apply(s, bad, np.array([[0.1], [0.9]]))
    for backend in ("cheb", "id"):
        with pytest.raises(ValueError, match=match):
            butterfly_apply(s, bad, 8, q=4, backend=backend)
        with pytest.raises(ValueError, match=match):
            simulate_parallel(s, bad, 8, p=4, q=4, backend=backend)
        field = butterfly_apply(s, get_phase("fourier"), 8, q=4, backend=backend)
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(field, phase=bad).evaluate(np.array([[0.1], [0.9]]))


def test_kernel_matrix_fortran_order_has_the_same_bits():
    rng = np.random.default_rng(53)
    for name, d in (("fourier", 2), ("hyp-radon", 2), ("gen-radon", 3)):
        xs, ys = rng.uniform(size=(37, d)), rng.uniform(size=(11, d))
        K = kernel_matrix(get_phase(name), xs, ys)
        F = kernel_matrix(get_phase(name), xs, ys, order="F")
        assert F.flags.f_contiguous and F.shape == K.shape
        assert np.array_equal(F, K), name


def test_huge_finite_phase_is_accepted():
    # its entries are finite although their sum overflows to inf
    huge = PhaseEvaluator("huge", 1, lambda x, y: np.full(np.broadcast_shapes(x.shape, y.shape)[:-1], 1e308))
    assert np.all(huge(np.zeros((3, 1, 1)), np.zeros((4, 1))) == 1e308)


# ---------------------------------------------------------------------------
# The kernel exp(i * theta)
# ---------------------------------------------------------------------------


def libm_expi(theta):
    return np.cos(theta) + 1j * np.sin(theta)


def bits(z):
    """The real and imaginary bit patterns of a complex array, on a last axis."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1).view(np.uint64)


def test_expi_matches_libm_in_every_decade():
    rng = np.random.default_rng(61)
    step = 2.0 * np.pi / phases._T
    worst = {}
    for top in [10.0**e for e in range(-3, 7)] + [1e9, 1e15]:
        theta = rng.uniform(-top, top, 20000)
        worst[top] = np.max(np.abs(phases._expi(theta) - libm_expi(theta)))
    # the far ends of each reduction interval, and the table nodes themselves
    k = rng.integers(-(10**8), 10**8, 20000).astype(float)
    ends = np.concatenate([(k + 0.5) * step, (k - 0.5) * step, k * step, np.arange(-4096, 4096) * step])
    worst["ends"] = np.max(np.abs(phases._expi(ends) - libm_expi(ends)))
    assert max(worst.values()) <= 4.5e-16, worst


def test_expi_reduction_constants():
    # pi from Machin's formula in integers, to 200 digits
    def arctan_inv(x, unity):
        total = term = unity // x
        n, sign = 1, -1
        while term:
            term //= x * x
            n += 2
            total += sign * (term // n)
            sign = -sign
        return total

    unity = 10**200
    pi = Fraction(4 * (4 * arctan_inv(5, unity) - arctan_inv(239, unity)), unity)
    head, tail = phases._STEP
    # the tail is the double nearest 2pi/T - head
    rest = 2 * pi / phases._T - Fraction(head)
    assert abs(rest - Fraction(tail)) <= Fraction(math.ulp(tail)) / 2
    # 26 significant bits, so k * head is exact for |k| < 2**27
    assert abs(Fraction(head).numerator).bit_length() <= 26
    k_max = phases._REDUCE_LIMIT * phases._T / (2 * np.pi)
    assert k_max < 2**27
    # what the split leaves out of k * 2pi/T is far below the 2**-52 budget
    assert k_max * abs(rest - Fraction(tail)) < Fraction(1, 10**18)


def test_expi_zero_and_conjugate_symmetry():
    assert phases._expi(0.0) == 1 + 0j
    assert phases._expi(np.zeros(3)).tolist() == [1 + 0j] * 3
    rng = np.random.default_rng(67)
    theta = np.concatenate(
        [rng.uniform(-(10.0**e), 10.0**e, 5000) for e in range(-2, 7)] + [np.arange(1, 8192) * (np.pi / 2048)]
    )
    assert np.all(theta != 0.0)
    assert np.array_equal(bits(phases._expi(-theta)), bits(np.conj(phases._expi(theta))))


def test_expi_bits_do_not_depend_on_the_batch():
    rng = np.random.default_rng(71)
    n = 3 * phases._CHUNK + 123
    theta = rng.uniform(-300.0, 300.0, n)
    theta[::97] *= 1e4  # some entries past the exact-reduction range
    whole = bits(phases._expi(theta))
    edges = (phases._CHUNK * np.arange(1, 4)[:, None] + np.arange(-1, 2)).ravel()
    picks = np.concatenate([rng.integers(0, n, 300), edges])
    for i in picks:
        assert np.array_equal(bits(phases._expi(theta[i : i + 1])), whole[i : i + 1]), i
        assert np.array_equal(bits(phases._expi(theta[i])), whole[i]), i
    assert np.array_equal(bits(phases._expi(theta[::-1])), whole[::-1])
    assert np.array_equal(bits(phases._expi(theta[5:])), whole[5:])
    wide = np.empty((n, 3))
    wide[:, 1] = theta
    assert np.array_equal(bits(phases._expi(wide[:, 1])), whole)  # a strided view
    square = theta[: 128 * 128].reshape(128, 128)
    assert np.array_equal(bits(phases._expi(square.T)), bits(phases._expi(square)).transpose(1, 0, 2))


@pytest.mark.parametrize("shape", [(), (0,), (3, 0), (0, 4, 2)])
def test_expi_keeps_empty_and_scalar_shapes(shape):
    out = phases._expi(np.full(shape, 0.25))
    assert out.shape == shape and out.dtype == complex
    if out.size:
        assert out == phases._expi(np.array([0.25]))[0]


def test_expi_non_finite_gives_nan_without_a_warning():
    theta = np.array([np.nan, np.inf, -np.inf, 1e300, -2e5 - 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = phases._expi(theta)
        single = [phases._expi(t) for t in theta]
    assert np.all(np.isnan(out.real[:3])) and np.all(np.isnan(out.imag[:3]))
    assert np.array_equal(out[3:], libm_expi(theta[3:]))
    assert np.array_equal(bits(out), bits(np.array(single)))


@pytest.mark.parametrize(
    "name,d,scale", [("fourier", 1, 1.0), ("fourier", 2, 1.0), ("fourier", 3, 1.0), ("fourier", 2, 64.0),
                     ("hyp-radon", 2, 1.0), ("gen-radon", 3, 1.0)]
)
def test_direct_apply_matches_a_libm_sum(name, d, scale):
    # rel_err is measured against direct_apply, which evaluates the kernel
    # through _expi; this keeps that reference tied to libm's exp
    base = get_phase(name)
    phase = PhaseEvaluator(f"{name}-x{scale:g}", base.dim, lambda x, y: scale * base.fn(x, y))
    rng = np.random.default_rng(73 + d)
    s = SourceSet(rng.uniform(size=(300, d)), rng.normal(size=300) + 1j * rng.normal(size=300))
    targets = rng.uniform(size=(200, d))
    exact = np.exp(1j * phase(targets[:, None], s.positions[None])) @ s.strengths
    got = direct_apply(s, phase, targets)
    assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))
