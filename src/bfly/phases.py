"""Oscillatory phase functions Phi(x, y), their registry and the kernel.

A kernel K(x, y) = exp(i * Phi(x, y)) is specified entirely by its real
phase. Evaluators take two broadcast-compatible (..., d) arrays of points
and return Phi at every point pair, in their broadcast shape without the
last axis. Each entry is a fixed sequence of elementwise operations on its
own two points, so its bits do not depend on the batch shape. A phase that
returns a NaN or inf is rejected where it is called, so no sample, weight
or factorization downstream has to scan for one.

Every kernel entry in the package goes through `_expi`, which turns phase
values into cos + i sin with whole-array NumPy operations instead of one
libm call per entry: theta is reduced exactly to r = theta - k * 2pi/T
with T = 4096, cos and sin of k * 2pi/T come from two tables built at
import, and short Taylor polynomials in |r| <= pi/T finish the job by
angle addition. Each part of the result is within 2**-52 (about 2.2e-16)
of the exact value, so within 4.5e-16 of libm's cos and sin. Entries past
|theta| = 2e5, where the reduction stops being exact, and NaN or inf go
to libm's cos and sin instead; a non-finite entry gives NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np


@dataclass(frozen=True)
class PhaseEvaluator:
    """A named phase with its expected spatial dimension (None = any).

    fn(xs, ys) takes two broadcast-compatible (..., d) float arrays and
    returns Phi at every point pair, in their broadcast shape without d."""

    name: str
    dim: Optional[int]
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)

    def __call__(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim == 0 or ys.ndim == 0 or xs.shape[-1] != ys.shape[-1]:
            raise ValueError(f"phase '{self.name}': point dimensions differ: {xs.shape} vs {ys.shape}")
        if self.dim is not None and xs.shape[-1] != self.dim:
            raise ValueError(f"phase '{self.name}' expects dimension {self.dim}, got {xs.shape[-1]}")
        try:
            shape = np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1])
            out = self.fn(xs, ys)
        except (IndexError, ValueError) as err:
            # IndexError: a phase written for paired (n, d) rows indexing x[:, k]
            raise ValueError(f"phase '{self.name}' on points {xs.shape} and {ys.shape}: {err}") from err
        if np.shape(out) != shape:
            raise ValueError(f"phase '{self.name}' returned shape {np.shape(out)}, not the point shape {shape}")
        # any NaN or inf makes the sum non-finite; only then is each entry
        # tested, which tells a finite sum's overflow apart
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.sum(out)
        if not np.isfinite(total) and not np.all(np.isfinite(out)):
            raise ValueError(f"phase '{self.name}' returned a NaN or inf on points {xs.shape} and {ys.shape}")
        return out


def _dot(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """x . y over the last axis, summed in component order."""
    out = xs[..., 0] * ys[..., 0]
    for k in range(1, xs.shape[-1]):
        out += xs[..., k] * ys[..., k]
    return out


def phase_fourier(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Phi(x, y) = 2*pi * x . y in any dimension."""
    return 2.0 * np.pi * _dot(xs, ys)


def phase_hyp_radon(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Hyperbolic integration surfaces: x = (x0, x1), y = (h, p),
    Phi = 2*pi * p * sqrt(x0^2 + x1^2 * h^2)."""
    x0, x1 = xs[..., 0], xs[..., 1]
    h, p = ys[..., 0], ys[..., 1]
    return 2.0 * np.pi * p * np.sqrt(x0 * x0 + x1 * x1 * h * h)


def phase_gen_radon(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Smooth 3-d generalized-Radon analogue:
    Phi = pi * (x . p + sqrt(gamma^2 + kappa^2)) with
    gamma = p0*(2 + sin(2*pi*x0)*sin(2*pi*x1))/3,
    kappa = p1*(2 + cos(2*pi*x0)*cos(2*pi*x1))/3."""
    t0, t1 = 2.0 * np.pi * xs[..., 0], 2.0 * np.pi * xs[..., 1]
    gamma = ys[..., 0] * ((2.0 + np.sin(t0) * np.sin(t1)) / 3.0)
    kappa = ys[..., 1] * ((2.0 + np.cos(t0) * np.cos(t1)) / 3.0)
    return np.pi * (_dot(xs, ys) + np.sqrt(gamma * gamma + kappa * kappa))


REGISTRY: Dict[str, PhaseEvaluator] = {
    "fourier": PhaseEvaluator("fourier", None, phase_fourier),
    "hyp-radon": PhaseEvaluator("hyp-radon", 2, phase_hyp_radon),
    "gen-radon": PhaseEvaluator("gen-radon", 3, phase_gen_radon),
}


def get_phase(name: str) -> PhaseEvaluator:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown phase '{name}'; known: {sorted(REGISTRY)}") from None


def register_phase(evaluator: PhaseEvaluator) -> None:
    """Add or replace a registry entry (used by tests for custom phases)."""
    REGISTRY[evaluator.name] = evaluator


# exp(i * theta) = exp(2pi*i * k/T) * exp(i * r), theta = k * 2pi/T + r
_T = 4096
# 2pi/T in three parts: the first two have 26 significant bits, so that
# k * part is exact for |k| < 2**27, and the three sum to 2pi/T within
# 1e-33 relative
_STEP = (
    float.fromhex("0x1.921fb58000000p-10"),
    -float.fromhex("0x1.dde9740000000p-37"),
    float.fromhex("0x1.1a62633145c07p-64"),
)
# |theta| <= 2e5 keeps |k| <= 1.31e8 < 2**27
_REDUCE_LIMIT = 2.0e5
# x + 1.5 * 2**52 rounds |x| < 2**51 to the nearest integer k (ties to
# even) and holds k mod T in its low mantissa bits
_SHIFT = 1.5 * 2.0**52
# entries per pass, so that the work rows stay in cache
_CHUNK = 8192


def _angle_tables() -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2pi * j/T for j = 0..T-1, each within 1 ulp.

    libm evaluates the first octant only, at a double nearest the angle,
    corrected to first order by the angle's rounding error; the rest follows
    by symmetry, so that cos(-a) and sin(-a) are cos(a) and -sin(a) bit for
    bit."""
    j = np.arange(_T // 8 + 1, dtype=float)
    hi = j * _STEP[0] + j * _STEP[1]
    lo = (j * _STEP[0] - hi) + j * _STEP[1] + j * _STEP[2]
    cos8 = np.cos(hi) - lo * np.sin(hi)
    sin8 = np.sin(hi) + lo * np.cos(hi)
    cos8[-1] = sin8[-1] = np.sqrt(0.5)
    # a quadrant from the octant, then the circle by quarter turns
    quarter = _T // 4
    c = np.concatenate([cos8, sin8[-2::-1]])[:quarter]
    s = np.concatenate([sin8, cos8[-2::-1]])[:quarter]
    # + 0.0 turns the -0.0 entries into +0.0
    cos_table = np.concatenate([c, -s, -c, s]) + 0.0
    sin_table = np.concatenate([s, c, -s, -c]) + 0.0
    cos_table.setflags(write=False)
    sin_table.setflags(write=False)
    return cos_table, sin_table


_COS, _SIN = _angle_tables()


def _expi_reduced(theta: np.ndarray, out: np.ndarray, work: np.ndarray, j: np.ndarray) -> None:
    """exp(i * theta) into out, for 1-d theta with |theta| <= _REDUCE_LIMIT.

    work, a (7, len(theta)) float array, and j, an int64 array of
    len(theta), are workspace; every step writes into them in place."""
    k, t, r, c, s, cos_r1, sin_r = work
    np.multiply(theta, _T / (2.0 * np.pi), out=k)
    k += _SHIFT
    np.bitwise_and(k.view(np.int64), _T - 1, out=j)
    k -= _SHIFT
    # r = theta - k * 2pi/T (Cody-Waite): the first subtraction is exact,
    # the other two lose about 1e-19
    np.multiply(k, _STEP[0], out=r)
    np.subtract(theta, r, out=r)
    np.multiply(k, _STEP[1], out=t)
    r -= t
    k *= _STEP[2]
    r -= k
    # j is in range; mode="clip" lets take write into c and s unbuffered
    _COS.take(j, out=c, mode="clip")
    _SIN.take(j, out=s, mode="clip")
    # |r| <= pi/T: cos r - 1 = r^2 (r^2/24 - 1/2) within 3e-22 and
    # sin r = r - r^3/6 within 3e-18
    np.multiply(r, r, out=sin_r)
    np.multiply(sin_r, 1.0 / 24.0, out=cos_r1)
    cos_r1 -= 0.5
    cos_r1 *= sin_r
    sin_r *= -1.0 / 6.0
    sin_r *= r
    sin_r += r
    # cos(a + r) = c + (c (cos r - 1) - s sin r) and
    # sin(a + r) = s + (s (cos r - 1) + c sin r); in-place steps where they can
    np.multiply(c, cos_r1, out=t)
    np.multiply(s, sin_r, out=k)
    t -= k
    np.add(c, t, out=out.real)
    cos_r1 *= s
    sin_r *= c
    cos_r1 += sin_r
    np.add(s, cos_r1, out=out.imag)


def _expi(theta: np.ndarray) -> np.ndarray:
    """exp(i * theta) for real theta, in theta's shape, without forming
    i * theta.

    Each entry is within 2**-52 of the exact value in each part, by table
    reduction to |r| <= pi/4096 and Taylor polynomials in r (see the module
    docstring); |theta| > 2e5 and NaN or inf use libm's cos and sin, and a
    non-finite entry gives NaN without a warning. Every entry goes through a
    fixed sequence of elementwise operations, so its bits do not depend on
    the batch it is in, and exp(-i*theta) is the conjugate bit for bit.
    """
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape, dtype=complex)
    flat, res = theta.ravel(), out.reshape(-1)
    if flat.size == 0:
        return out
    far = None
    if not (-_REDUCE_LIMIT <= flat.min() and flat.max() <= _REDUCE_LIMIT):
        far = ~(np.abs(flat) <= _REDUCE_LIMIT)
        beyond = flat[far]
        flat = np.where(far, 0.0, flat)
    m = min(flat.size, _CHUNK)
    work, j = np.empty((7, m)), np.empty(m, dtype=np.int64)
    for start in range(0, flat.size, _CHUNK):
        stop = min(start + _CHUNK, flat.size)
        n = stop - start
        _expi_reduced(flat[start:stop], res[start:stop], work[:, :n], j[:n])
    if far is not None:
        tail = np.empty(beyond.shape, dtype=complex)
        with np.errstate(invalid="ignore"):  # cos and sin of inf are NaN
            np.cos(beyond, out=tail.real)
            np.sin(beyond, out=tail.imag)
        res[far] = tail
    return out


def kernel_matrix(phase: PhaseEvaluator, xs: np.ndarray, ys: np.ndarray, order: str = "C") -> np.ndarray:
    """exp(i * Phi) on the full cross product: (len(xs), len(ys)) complex.

    order="F" gives the same entries in Fortran order, which LAPACK takes
    without a copy: the transpose of the C-ordered (len(ys), len(xs))
    evaluation, whose entries have the same bits by the batch-independence
    of the phase."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if order == "F":
        return _expi(phase(xs[None], ys[:, None])).T
    return _expi(phase(xs[:, None], ys[None]))
