"""The accountant bounds total ε spend — including the Algorithm 1 fallback.

Satellite coverage for two end-to-end guarantees:

* no execution path spends more than the configured total ε (the fallback
  branch of ``noisy_conditionals_fixed_k`` charges an *extra* share, and
  the accountant must refuse it rather than silently overdraw);
* a fixed seed makes ``PrivBayes.fit`` fully deterministic, so the
  scoring-engine caches can be validated against recorded fingerprints.
"""

import numpy as np
import pytest

from repro.bn.network import APPair, BayesianNetwork
from repro.core.noisy_conditionals import noisy_conditionals_fixed_k
from repro.core.privbayes import PrivBayes
from repro.dp.accountant import PrivacyAccountant, PrivacyBudgetError


class TestBudgetNeverExceeded:
    @pytest.mark.parametrize("epsilon", [0.1, 1.0, 4.0])
    def test_binary_fit_spends_at_most_epsilon(self, binary_table, epsilon):
        model = PrivBayes(epsilon=epsilon, k=2).fit(
            binary_table, rng=np.random.default_rng(0)
        )
        assert model.accountant.spent <= epsilon + 1e-9
        assert model.accountant.remaining == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("epsilon", [0.1, 1.0])
    def test_general_fit_spends_at_most_epsilon(self, mixed_table, epsilon):
        model = PrivBayes(epsilon=epsilon, generalize=True).fit(
            mixed_table, rng=np.random.default_rng(0)
        )
        assert model.accountant.spent <= epsilon + 1e-9
        assert model.accountant.remaining == pytest.approx(0.0, abs=1e-6)

    def test_algorithm1_fallback_cannot_overdraw(self, binary_table):
        """A network violating the Algorithm 2 structural guarantee forces
        the fallback branch, whose extra per-marginal share would overdraw
        ε₂ — the accountant must refuse the charge."""
        network = BayesianNetwork(
            [
                APPair.make("a", []),
                APPair.make("b", []),  # anchor for k=1: names {b} only
                APPair.make("c", ["a"]),
                APPair.make("d", ["c"]),
            ]
        )
        epsilon2 = 0.5
        accountant = PrivacyAccountant(epsilon2)
        with pytest.raises(PrivacyBudgetError):
            noisy_conditionals_fixed_k(
                network=network,
                table=binary_table,
                k=1,
                epsilon2=epsilon2,
                rng=np.random.default_rng(0),
                accountant=accountant,
            )
        # Even at the point of refusal, nothing beyond the budget was spent.
        assert accountant.spent <= epsilon2 + 1e-9

    def test_fallback_without_accountant_still_works(self, binary_table):
        """The ledger-free path keeps the seed behavior (no refusal): it is
        the caller's responsibility to pass an accountant when the input
        network may violate the structural guarantee."""
        network = BayesianNetwork(
            [
                APPair.make("a", []),
                APPair.make("b", []),
                APPair.make("c", ["a"]),
                APPair.make("d", ["c"]),
            ]
        )
        model = noisy_conditionals_fixed_k(
            network=network,
            table=binary_table,
            k=1,
            epsilon2=0.5,
            rng=np.random.default_rng(0),
        )
        assert {t.child for t in model.conditionals} == {"a", "b", "c", "d"}

    def test_algorithm2_networks_never_hit_fallback(self, binary_table):
        """Networks built by Algorithm 2 satisfy the structural guarantee,
        so no ledger entry is a fallback charge."""
        model = PrivBayes(epsilon=1.0, k=2).fit(
            binary_table, rng=np.random.default_rng(3)
        )
        labels = [label for label, _ in model.accountant.ledger]
        assert not any("fallback" in label for label in labels)


class TestSeededDeterminism:
    def test_fit_is_bit_identical_across_runs(self, binary_table):
        def run():
            model = PrivBayes(epsilon=1.0, k=2, first_attribute="a").fit(
                binary_table, rng=np.random.default_rng(42)
            )
            return model

        first, second = run(), run()
        assert first.network == second.network
        for left, right in zip(first.noisy.conditionals, second.noisy.conditionals):
            assert left.child == right.child
            assert np.array_equal(left.matrix, right.matrix)

    def test_shared_scoring_cache_is_bit_identical(self, binary_table):
        from repro.core.scoring import ScoringCache

        cache = ScoringCache()

        def run(scoring_cache):
            return PrivBayes(epsilon=1.0, k=2, first_attribute="a").fit(
                binary_table,
                rng=np.random.default_rng(42),
                scoring_cache=scoring_cache,
            )

        cold = run(None)
        warm = run(cache)
        warmest = run(cache)  # second pass: every score is a memo hit
        assert cold.network == warm.network == warmest.network
        for a, b in zip(cold.noisy.conditionals, warmest.noisy.conditionals):
            assert np.array_equal(a.matrix, b.matrix)
