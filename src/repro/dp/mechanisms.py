"""The Laplace and exponential mechanisms (Section 2.1)."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.dp.accountant import check_epsilon


def laplace_scale(sensitivity: float, epsilon: float) -> float:
    """The Laplace-mechanism noise scale ``b = sensitivity / epsilon``.

    The single sanctioned place to derive a noise scale from a budget:
    static-analysis rule PRIV002 requires every noise call's scale
    expression to flow through a sensitivity helper, so calibration errors
    (wrong sensitivity, raw ε arithmetic) stay greppable in one module.
    """
    check_epsilon(epsilon)
    if sensitivity < 0:
        raise ValueError("sensitivity must be non-negative")
    return sensitivity / epsilon


def laplace_noise(
    scale: float, size, rng: np.random.Generator
) -> np.ndarray:
    """Draw i.i.d. ``Lap(scale)`` noise (pdf ``exp(-|x|/scale) / (2 scale)``).

    ``scale`` must be finite and non-negative; 0 gives zeros.  A NaN or
    infinite scale raises, since it would draw NaN or infinite noise.
    """
    if not (math.isfinite(scale) and scale >= 0):
        raise ValueError(
            f"Laplace scale must be finite and non-negative; got {scale!r}"
        )
    if scale == 0:
        return np.zeros(size)
    return rng.laplace(loc=0.0, scale=scale, size=size)


def laplace_mechanism(
    values: np.ndarray,
    sensitivity: float,
    epsilon: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """ε-DP release of a numeric vector with the given L1 sensitivity.

    Adds ``Lap(sensitivity / epsilon)`` noise to every entry (Definition 2.2
    and the surrounding discussion).
    """
    check_epsilon(epsilon)
    if sensitivity < 0:
        raise ValueError("sensitivity must be non-negative")
    values = np.asarray(values, dtype=float)
    return values + laplace_noise(
        laplace_scale(sensitivity, epsilon), values.shape, rng
    )


def exponential_mechanism(
    scores: Sequence[float],
    sensitivity: float,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """ε-DP selection of an index with probability ∝ exp(score / 2Δ).

    ``Δ = sensitivity / epsilon`` is the scaling factor of Section 2.1.
    Scores are shifted by their maximum before exponentiation for numerical
    stability (the mechanism is invariant to constant shifts).  The draw is
    one ``rng.choice(len(scores), p=probabilities)`` call; a zero
    sensitivity (data-independent scores) puts all the mass on the argmax.
    ``epsilon`` must be a finite positive number.
    """
    check_epsilon(epsilon)
    if sensitivity < 0:
        raise ValueError("sensitivity must be non-negative")
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("need a non-empty 1-D score array")
    if sensitivity == 0:
        # Scores are data-independent: pick the argmax deterministically.
        probabilities = np.zeros_like(scores)
        probabilities[int(np.argmax(scores))] = 1.0
    else:
        delta = sensitivity / epsilon
        shifted = (scores - scores.max()) / (2.0 * delta)
        weights = np.exp(shifted)
        probabilities = weights / weights.sum()
    return int(rng.choice(scores.size, p=probabilities))
