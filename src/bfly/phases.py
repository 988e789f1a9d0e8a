"""Oscillatory phase functions Phi(x, y) and their registry.

A kernel K(x, y) = exp(i * Phi(x, y)) is specified entirely by its real
phase. Evaluators are batched: both arguments are (n, d) arrays paired row
by row, returning n real values. Batch results must equal pointwise calls
exactly, so every implementation below is a single vectorized expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np


@dataclass(frozen=True)
class PhaseEvaluator:
    """A named phase with its expected spatial dimension (None = any)."""

    name: str
    dim: Optional[int]
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)

    def __call__(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        if xs.shape != ys.shape:
            raise ValueError(f"batch shapes differ: {xs.shape} vs {ys.shape}")
        if self.dim is not None and xs.shape[1] != self.dim:
            raise ValueError(f"phase '{self.name}' expects dimension {self.dim}, got {xs.shape[1]}")
        return self.fn(xs, ys)


def phase_fourier(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Phi(x, y) = 2*pi * x . y in any dimension."""
    return 2.0 * np.pi * np.einsum("ij,ij->i", xs, ys)


def phase_hyp_radon(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Hyperbolic integration surfaces: x = (x0, x1), y = (h, p),
    Phi = 2*pi * p * sqrt(x0^2 + x1^2 * h^2)."""
    x0, x1 = xs[:, 0], xs[:, 1]
    h, p = ys[:, 0], ys[:, 1]
    return 2.0 * np.pi * p * np.sqrt(x0 * x0 + x1 * x1 * h * h)


def phase_gen_radon(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Smooth 3-d generalized-Radon analogue:
    Phi = pi * (x . p + sqrt(gamma^2 + kappa^2)) with
    gamma = p0*(2 + sin(2*pi*x0)*sin(2*pi*x1))/3,
    kappa = p1*(2 + cos(2*pi*x0)*cos(2*pi*x1))/3."""
    x0, x1 = xs[:, 0], xs[:, 1]
    p0, p1 = ys[:, 0], ys[:, 1]
    two_pi = 2.0 * np.pi
    gamma = p0 * (2.0 + np.sin(two_pi * x0) * np.sin(two_pi * x1)) / 3.0
    kappa = p1 * (2.0 + np.cos(two_pi * x0) * np.cos(two_pi * x1)) / 3.0
    dot = np.einsum("ij,ij->i", xs, ys)
    return np.pi * (dot + np.sqrt(gamma * gamma + kappa * kappa))


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


def _points_to(x: np.ndarray, shape: tuple) -> np.ndarray:
    """Points x (..., d) broadcast to shape (..., d), as an (n, d) array.

    Each point is copied as one d-float item: numpy copies a broadcast
    array of d-float rows several times more slowly, as d separate floats,
    and np.broadcast_to costs more than the copy on small arrays."""
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape == shape:
        return x.reshape(-1, shape[-1])
    item = np.dtype((np.void, x.itemsize * shape[-1]))
    out = np.empty(shape[:-1], dtype=item)
    out[...] = x.view(item)[..., 0]
    return out.reshape(-1).view(float).reshape(-1, shape[-1])


def _phase_on(phase: PhaseEvaluator, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Phi at every point pair of two broadcast-compatible (..., d) arrays,
    in one batched call; the result has the broadcast shape without d."""
    shape = np.broadcast_shapes(x.shape, y.shape)
    return phase(_points_to(x, shape), _points_to(y, shape)).reshape(shape[:-1])


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
    return _expi(_phase_on(phase, xs[:, None], ys[None]))
