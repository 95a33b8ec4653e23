"""Statistical behaviour of exponential-mechanism structure selection.

These tests pin the *reason* the score functions matter: with the same
budget, selection through F/R finds better networks than through I, and
more budget means better networks — the mechanisms behind Figure 4.
"""

import numpy as np
import pytest

from repro.bn.quality import network_mutual_information
from repro.core.greedy_bayes import greedy_bayes_fixed_k, greedy_bayes_theta
from repro.core.scoring import CandidateScorer
from repro.datasets import load_dataset


@pytest.fixture(scope="module")
def nltcs():
    return load_dataset("nltcs", n=3000, seed=0)


def _mean_quality_fixed_k(table, score, epsilon1, seeds, k=1):
    quality = CandidateScorer(table, "I")
    values = []
    for seed in seeds:
        network = greedy_bayes_fixed_k(
            table, k, epsilon1, score=score,
            rng=np.random.default_rng(seed),
            first_attribute=table.attribute_names[0],
        )
        values.append(network_mutual_information(network, quality))
    return float(np.mean(values))


class TestBudgetMonotonicity:
    def test_more_budget_better_networks(self, nltcs):
        seeds = range(8)
        starved = _mean_quality_fixed_k(nltcs, "F", 0.001, seeds)
        funded = _mean_quality_fixed_k(nltcs, "F", 5.0, seeds)
        assert funded > starved

    def test_high_budget_approaches_nonprivate(self, nltcs):
        best = _mean_quality_fixed_k(nltcs, "I", None, [0])
        funded = _mean_quality_fixed_k(nltcs, "F", 50.0, range(5))
        assert funded >= 0.9 * best


class TestScoreFunctionAdvantage:
    def test_F_beats_I_at_small_budget(self, nltcs):
        """The Figure 4 effect: at tight ε₁, F's smaller sensitivity finds
        strictly better structures on average."""
        seeds = range(10)
        with_f = _mean_quality_fixed_k(nltcs, "F", 0.05, seeds)
        with_i = _mean_quality_fixed_k(nltcs, "I", 0.05, seeds)
        assert with_f > with_i

    def test_R_beats_I_at_small_budget_general(self):
        table = load_dataset("br2000", n=3000, seed=0)
        first = table.attribute_names[0]

        quality = CandidateScorer(table, "I")

        def mean_quality(score):
            values = []
            for seed in range(8):
                network = greedy_bayes_theta(
                    table, 0.05, 0.3, 4.0, score=score,
                    rng=np.random.default_rng(seed), first_attribute=first,
                )
                values.append(network_mutual_information(network, quality))
            return float(np.mean(values))

        assert mean_quality("R") > mean_quality("I")
