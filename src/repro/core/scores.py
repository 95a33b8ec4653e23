"""Sensitivities of the score functions for exponential-mechanism AP-pair
selection.

The three score functions of Table 4 of the paper are computed in batches
by :mod:`repro.core.score_kernels` (through
:class:`repro.core.scoring.CandidateScorer`); this module holds the
sensitivity each one contributes to the exponential mechanism:

* ``I(X, Π)`` — mutual information (Section 4.2): Lemma 4.1, large
  relative to its range, hence noisy selection.
* ``F(X, Π)`` — negative half L1 distance to the closest *maximum* joint
  distribution (Equation 7): ``1/n`` (Theorem 4.5).
* ``R(X, Π)`` — half L1 distance to the independent joint (Equation 11):
  ``3/n + 2/n²`` (Theorem 5.3).
"""

from __future__ import annotations

import math


def sensitivity_I(n: int, binary: bool) -> float:
    """``S(I)`` per Lemma 4.1.

    ``binary`` means the child *or* the parent set has a binary domain.
    """
    if n <= 1:
        # Degenerate single-tuple dataset: fall back to the range bound.
        return 1.0
    n = float(n)
    if binary:
        return (1.0 / n) * math.log2(n) + ((n - 1.0) / n) * math.log2(n / (n - 1.0))
    return (2.0 / n) * math.log2((n + 1.0) / 2.0) + (
        (n - 1.0) / n
    ) * math.log2((n + 1.0) / (n - 1.0))


def sensitivity_F(n: int) -> float:
    """``S(F) = 1/n`` (Theorem 4.5)."""
    if n <= 0:
        raise ValueError("n must be positive")
    return 1.0 / n


def sensitivity_R(n: int) -> float:
    """``S(R) ≤ 3/n + 2/n²`` (Theorem 5.3)."""
    if n <= 0:
        raise ValueError("n must be positive")
    return 3.0 / n + 2.0 / (n * n)
