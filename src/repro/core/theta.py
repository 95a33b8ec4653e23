"""θ-usefulness (Definition 4.7): picking the network degree automatically.

A noisy marginal is θ-useful when its average information-per-cell is at
least θ times the average Laplace noise magnitude.  For binary domains this
yields a closed-form choice of the network degree ``k`` (Lemma 4.8); for
general domains it yields a bound ``τ`` on the domain size of each
materialized marginal (Section 5.2), consumed by the maximal-parent-set
search.

Both computations depend only on the public quantities ``n, d, ε₂, θ`` —
they never inspect the data, so they carry no privacy cost.
"""

from __future__ import annotations

from repro.dp.accountant import check_epsilon


def usefulness_ratio_binary(n: int, d: int, k: int, epsilon2: float) -> float:
    """The θ of Lemma 4.8: ``n·ε₂ / ((d-k)·2^(k+2))`` for binary domains."""
    if not 0 <= k < d:
        raise ValueError("k must satisfy 0 <= k < d")
    return (n * epsilon2) / ((d - k) * 2 ** (k + 2))


def choose_k_binary(n: int, d: int, epsilon2: float, theta: float) -> int:
    """Largest ``k >= 1`` whose noisy marginals stay θ-useful, else 0.

    Implements the rule of Section 4.5: pick the largest positive integer
    ``k`` guaranteeing θ-usefulness in distribution learning; when none
    exists, fall back to ``k = 0`` (all attributes independent).
    """
    if d < 2:
        return 0
    best = 0
    for k in range(1, d):
        if usefulness_ratio_binary(n, d, k, epsilon2) >= theta:
            best = k
    return best


def usefulness_tau(n: int, d: int, epsilon2: float, theta: float) -> float:
    """Domain-size bound ``τ = n·ε₂ / (2dθ)`` for general domains.

    Section 5.2: with Algorithm 3 adding ``Lap(2d/nε₂)`` per cell, a
    marginal with ``m`` cells is θ-useful iff ``m ≤ n·ε₂/(2dθ)``.  The
    parent-set search for child ``X`` then uses ``τ / |dom(X)|`` as the
    bound on the parent-set domain size.  A NaN ``ε₂`` or ``θ`` is refused:
    a NaN ``τ`` passes every ``τ < 1`` test of the parent-set search, which
    would then take every placed attribute as a parent.
    """
    if n <= 0 or d <= 0:
        raise ValueError("n and d must be positive")
    check_epsilon(epsilon2, "epsilon2")
    if not theta > 0:
        raise ValueError(f"theta must be positive; got {theta!r}")
    return (n * epsilon2) / (2.0 * d * theta)
