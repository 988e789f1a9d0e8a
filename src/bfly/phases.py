"""Oscillatory phase functions Phi(x, y) and their registry.

A kernel K(x, y) = exp(i * Phi(x, y)) is specified entirely by its real
phase. Evaluators take two broadcast-compatible (..., d) arrays of points
and return Phi at every point pair, in their broadcast shape without the
last axis. Each entry is a fixed sequence of elementwise operations on its
own two points, so its bits do not depend on the batch shape.
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


def _expi(theta: np.ndarray) -> np.ndarray:
    """exp(i * theta) for real theta, without forming i * theta."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def kernel_matrix(phase: PhaseEvaluator, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """exp(i * Phi) on the full cross product: (len(xs), len(ys)) complex."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    return _expi(phase(xs[:, None], ys[None]))
