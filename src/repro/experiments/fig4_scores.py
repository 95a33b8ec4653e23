"""Figure 4: quality of score functions I / F / R vs the NoPrivacy ceiling.

For every ε the network degree (binary datasets) or the θ-usefulness bound
(general datasets) is derived from ε₂ = (1-β)ε exactly as PrivBayes would,
then a network is learned with each score function under the exponential
mechanism with budget ε₁ = βε.  The reported metric is the network quality
``Σ_i I(X_i, Π_i)`` measured on the noise-free data.  NoPrivacy runs the
same greedy construction with plain argmax over I.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.bn.quality import network_mutual_information
from repro.core.greedy_bayes import greedy_bayes_fixed_k, greedy_bayes_theta
from repro.core.privbayes import DEFAULT_BETA, DEFAULT_THETA
from repro.core.scoring import ScoringCache
from repro.core.theta import choose_k_binary
from repro.datasets import load_dataset
from repro.dp.accountant import split_epsilon
from repro.experiments.framework import EPSILONS, ExperimentResult

_BINARY_DATASETS = {"nltcs", "acs"}


def _learn_network(
    table, dataset, score, epsilon1, epsilon2, theta, rng, first, scoring
):
    """One network under the dataset's mode (binary fixed-k vs general θ)."""
    scorer = scoring.scorer(table, score)
    if dataset in _BINARY_DATASETS:
        k = choose_k_binary(table.n, table.d, epsilon2, theta)
        if k == 0:
            k = 1  # the figure studies selection quality, not the k=0 corner
        return greedy_bayes_fixed_k(
            table,
            k,
            epsilon1,
            score=score,
            rng=rng,
            first_attribute=first,
            scorer=scorer,
        )
    return greedy_bayes_theta(
        table,
        epsilon1,
        epsilon2,
        theta,
        score=score,
        rng=rng,
        first_attribute=first,
        scorer=scorer,
    )


def run_fig4(
    dataset: str = "nltcs",
    epsilons: Sequence[float] = EPSILONS,
    repeats: int = 5,
    n: Optional[int] = None,
    theta: float = DEFAULT_THETA,
    beta: float = DEFAULT_BETA,
    seed: int = 0,
) -> ExperimentResult:
    """Reproduce one panel of Figure 4."""
    table = load_dataset(dataset, n=n, seed=seed)
    # One scoring cache for the whole figure: candidate scores are data
    # statistics, shared across every (score, ε, repeat) cell.  The
    # network quality reads the I learner's own scorer, so each AP pair's
    # I is counted and scored at most once per figure.
    scoring = ScoringCache()
    quality = scoring.scorer(table, "I")
    binary = dataset in _BINARY_DATASETS
    scores = ["I", "R", "F"] if binary else ["I", "R"]
    result = ExperimentResult(
        experiment=f"fig4-{dataset}",
        title=f"score functions on {dataset.upper()}",
        x_label="epsilon",
        y_label="sum of mutual information",
        x=list(epsilons),
    )
    first = table.attribute_names[0]
    for score in scores:
        values = []
        for eps_idx, epsilon in enumerate(epsilons):
            epsilon1, epsilon2 = split_epsilon(epsilon, (beta, 1.0 - beta))
            repeats_values = []
            for r in range(repeats):
                rng = np.random.default_rng(seed * 7919 + eps_idx * 101 + r)
                network = _learn_network(
                    table, dataset, score, epsilon1, epsilon2, theta, rng,
                    first, scoring,
                )
                repeats_values.append(
                    network_mutual_information(network, quality)
                )
            values.append(float(np.mean(repeats_values)))
        result.add(score, values)
    # NoPrivacy ceiling: argmax greedy over I with the same ε-driven degree.
    ceiling = []
    for epsilon in epsilons:
        (epsilon2,) = split_epsilon(epsilon, (1.0 - beta,))
        rng = np.random.default_rng(seed)
        network = _learn_network(
            table, dataset, "I", None, epsilon2, theta, rng, first, scoring
        )
        ceiling.append(network_mutual_information(network, quality))
    result.add("NoPrivacy", ceiling)
    return result
