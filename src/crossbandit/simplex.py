"""Probability-simplex arithmetic: exponential weights, tilts, sampling.

The exponential-weights map is the closed-form minimizer of the
entropy-regularized cumulative-loss objective, so it doubles as the FTRL
kernel used by every learner here. All functions accept a single vector
(K,) or a stack of rows (M, K) and operate along the last axis.
"""

from __future__ import annotations

import numpy as np

SIMPLEX_ATOL = 1e-9


def check_simplex(p: np.ndarray, atol: float = SIMPLEX_ATOL) -> np.ndarray:
    """Validate nonnegativity and unit sum (within atol); returns float64 array."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("expected a nonempty 1-D probability vector")
    if not np.isfinite(p).all():
        raise ValueError("probability vector has non-finite entries")
    if (p < 0).any():
        raise ValueError("probability vector has negative entries")
    total = float(p.sum())
    if abs(total - 1.0) > atol:
        raise ValueError(f"probabilities sum to {total!r}, not 1 within {atol}")
    return p


def exp_weights(totals: np.ndarray, learning_rate: float) -> np.ndarray:
    """Distribution(s) with p(a) proportional to exp(-rate * totals(a)).

    Stabilized by shifting each row by its minimum before exponentiation, so
    cumulative totals spanning [0, 1e8] stay overflow-free.
    """
    if learning_rate <= 0:
        raise ValueError(f"learning rate must be positive, got {learning_rate}")
    t = np.asarray(totals, dtype=np.float64)
    if not np.isfinite(t).all():
        raise ValueError("cumulative losses contain non-finite entries")
    z = t - t.min(axis=-1, keepdims=True)
    w = np.exp(-learning_rate * z)
    return w / w.sum(axis=-1, keepdims=True)


def tilt(base: np.ndarray, deltas: np.ndarray, learning_rate: float) -> np.ndarray:
    """Reweight ``base`` by exp(-rate * deltas) and renormalize.

    Computed in log space so that exp_weights(c) tilted by d equals
    exp_weights(c + d) to high precision.
    """
    if learning_rate <= 0:
        raise ValueError(f"learning rate must be positive, got {learning_rate}")
    b = np.asarray(base, dtype=np.float64)
    d = np.asarray(deltas, dtype=np.float64)
    if not np.isfinite(d).all():
        raise ValueError("deltas contain non-finite entries")
    with np.errstate(divide="ignore"):
        logw = np.log(b) - learning_rate * d
    logw -= logw.max(axis=-1, keepdims=True)
    w = np.exp(logw)
    return w / w.sum(axis=-1, keepdims=True)


def sample_arm(p: np.ndarray, rng: np.random.Generator) -> int:
    """Categorical draw by inverse CDF over the stored order.

    Ties (zero-width intervals) resolve to the lowest index; deterministic
    given the generator state. ``p`` must be an ndarray.
    """
    cdf = p.cumsum()
    a = int(cdf.searchsorted(rng.random(), side="right"))
    return min(a, len(cdf) - 1)
