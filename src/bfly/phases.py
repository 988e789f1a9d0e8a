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
libm call per entry: theta is reduced to r = theta - k * 2pi/T with
T = 4096 by a two-part Cody-Waite split of 2pi/T, exp(2pi*i * k/T) comes
from one complex table built at import, short Taylor polynomials in
|r| <= pi/T give cos r - 1 and sin r, and one complex multiply-add joins
them to the table entry by angle addition. A pass over 8192 entries makes
18 whole-array calls. Each part of the result is within 2**-52 (about
2.2e-16) of the exact value, so within 4.5e-16 of libm's cos and sin.
Entries past |theta| = 2e5, where the reduction stops being exact, and NaN
or inf go to libm's cos and sin instead; a non-finite entry gives NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np


@dataclass(frozen=True)
class PhaseEvaluator:
    """A named phase with its expected spatial dimension (None = any).

    fn(xs, ys) takes two broadcast-compatible (..., d) float arrays and
    returns Phi at every point pair, in their broadcast shape without d.
    The id backend's precompute calls fn from several threads at once, so
    fn must be safe to call concurrently; every built-in phase is."""

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
    Phi = 2*pi * p * sqrt((1 + x0)^2 + x1^2 * h^2). The offset keeps the
    square root away from its kink at the origin, so Phi is smooth on the
    whole unit square."""
    x0, x1 = 1.0 + xs[..., 0], xs[..., 1]
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
    """Add a custom phase to the registry, or replace the entry of its
    name; get_phase(evaluator.name) returns it from then on."""
    REGISTRY[evaluator.name] = evaluator


# exp(i * theta) = exp(2pi*i * k/T) * exp(i * r), theta = k * 2pi/T + r
_T = 4096
# 2pi/T in two parts (Cody-Waite): a head of 26 significant bits, so that
# k * head is exact for |k| < 2**27, and the double nearest the rest, so
# that head + tail is within 6.3e-28 of 2pi/T
_STEP = (
    float.fromhex("0x1.921fb58000000p-10"),
    -float.fromhex("0x1.dde973dcb3b3ap-37"),
)
# |theta| <= 2e5 keeps |k| <= 1.31e8 < 2**27
_REDUCE_LIMIT = 2.0e5
# x + 1.5 * 2**52 rounds |x| < 2**51 to the nearest integer k (ties to
# even) and holds k mod T in its low mantissa bits
_SHIFT = 1.5 * 2.0**52
# entries per pass, so that the work rows stay in cache. Longer passes
# hand the interpreter lock between the id precompute's workers less often,
# but 2^14 made the benchmark's evaluate calls, 16k-37k entries each, 4-14%
# slower on a 2-core Xeon with 2 MB of L2 per core, and sped up the id
# set-up by a few percent at most once it samples one family per call
_CHUNK = 8192


def _angle_table() -> np.ndarray:
    """exp(2pi*i * j/T) for j = 0..T-1, each part within 1 ulp.

    libm evaluates the first octant only, at a double nearest the angle,
    corrected to first order by the angle's rounding error; the rest follows
    by symmetry, so that the entry at -a is the conjugate of the one at a
    bit for bit."""
    # the tail's leading 26 bits (Veltkamp split), so that j * mid is exact
    # like j * head and hi + lo holds the angle far past double precision
    v = _STEP[1] * (2.0**27 + 1.0)
    mid = v - (v - _STEP[1])
    j = np.arange(_T // 8 + 1, dtype=float)
    hi = j * _STEP[0] + j * mid
    lo = (j * _STEP[0] - hi) + j * mid + j * (_STEP[1] - mid)
    cos8 = np.cos(hi) - lo * np.sin(hi)
    sin8 = np.sin(hi) + lo * np.cos(hi)
    cos8[-1] = sin8[-1] = np.sqrt(0.5)
    # a quadrant from the octant, then the circle by quarter turns
    quarter = _T // 4
    c = np.concatenate([cos8, sin8[-2::-1]])[:quarter]
    s = np.concatenate([sin8, cos8[-2::-1]])[:quarter]
    table = np.empty(_T, dtype=complex)
    # + 0.0 turns the -0.0 entries into +0.0
    table.real = np.concatenate([c, -s, -c, s]) + 0.0
    table.imag = np.concatenate([s, c, -s, -c]) + 0.0
    table.setflags(write=False)
    return table


_E = _angle_table()


def _expi_reduced(theta: np.ndarray, out: np.ndarray, work: np.ndarray, w: np.ndarray, j: np.ndarray) -> None:
    """exp(i * theta) into out, for 1-d theta with |theta| <= _REDUCE_LIMIT.

    work, a (3, len(theta)) float array, w, a complex array of len(theta),
    and j, an int64 array of len(theta), are workspace; every step writes
    into them or into out in place: 18 whole-array calls in all."""
    k, r, t = work
    np.multiply(theta, _T / (2.0 * np.pi), out=k)
    k += _SHIFT
    np.bitwise_and(k.view(np.int64), _T - 1, out=j)
    k -= _SHIFT
    # r = theta - k * 2pi/T: the first subtraction is exact, the second
    # loses at most about 3e-19
    np.multiply(k, _STEP[0], out=r)
    np.subtract(theta, r, out=r)
    k *= _STEP[1]
    r -= k
    # j is in range; mode="clip" lets take write into out unbuffered
    _E.take(j, out=out, mode="clip")
    # |r| <= pi/T: cos r - 1 = r^2 (r^2/24 - 1/2) within 3e-22 and
    # sin r = r - r^3/6 within 3e-18, into the two parts of w
    np.multiply(r, r, out=t)
    np.multiply(t, 1.0 / 24.0, out=k)
    k -= 0.5
    np.multiply(k, t, out=w.real)
    t *= -1.0 / 6.0
    t *= r
    np.add(t, r, out=w.imag)
    # exp(i(a + r)) = E + E (exp(ir) - 1), one complex multiply-add
    np.multiply(out, w, out=w)
    out += w


def _expi(theta: np.ndarray) -> np.ndarray:
    """exp(i * theta) for real theta, in theta's shape, without forming
    i * theta.

    Each entry is within 2**-52 of the exact value in each part, by table
    reduction to |r| <= pi/4096, Taylor polynomials in r and a complex
    multiply-add, 18 whole-array calls per pass of 8192 entries (see the
    module docstring); |theta| > 2e5 and NaN or inf use libm's cos and sin,
    and a non-finite entry gives NaN without a warning. Every entry goes
    through a fixed sequence of elementwise operations, so its bits do not
    depend on the batch it is in, and exp(-i*theta) is the conjugate bit
    for bit. The pass workspace is allocated on every call, so threads may
    call it at once. A workspace kept per thread made no id set-up faster
    and evaluate calls up to 6% slower: it is out of cache when an isolated
    call starts, where a new one reuses memory the phase call just freed.
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
    work, w, j = np.empty((3, m)), np.empty(m, dtype=complex), np.empty(m, dtype=np.int64)
    for start in range(0, flat.size, _CHUNK):
        stop = min(start + _CHUNK, flat.size)
        n = stop - start
        _expi_reduced(flat[start:stop], res[start:stop], work[:, :n], w[:n], j[:n])
    if far is not None:
        tail = np.empty(beyond.shape, dtype=complex)
        with np.errstate(invalid="ignore"):  # cos and sin of inf are NaN
            np.cos(beyond, out=tail.real)
            np.sin(beyond, out=tail.imag)
        res[far] = tail
    return out


def kernel_matrix(phase: PhaseEvaluator, xs: np.ndarray, ys: np.ndarray, order: str = "C") -> np.ndarray:
    """exp(i * Phi) on the full cross product: (len(xs), len(ys)) complex,
    or for a stack of row sets xs of shape (..., m, d) the stack of their
    matrices, (..., m, len(ys)), from one phase call.

    order="F" gives the same entries with each (m, len(ys)) matrix in
    Fortran order, which LAPACK takes without a copy: the transposes of the
    C-ordered (..., len(ys), m) evaluation, whose entries have the same bits
    by the batch-independence of the phase."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if order == "F":
        return np.swapaxes(_expi(phase(xs[..., None, :, :], ys[:, None])), -1, -2)
    return _expi(phase(xs[..., :, None, :], ys[None]))
