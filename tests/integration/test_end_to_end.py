"""Integration: full releases on every dataset, every method, both tasks."""

import numpy as np
import pytest

from repro.core.privbayes import PrivBayes
from repro.datasets import load_dataset
from repro.release import METHODS, release_synthetic
from repro.svm import LinearSVM, featurize, misclassification_rate
from repro.workloads import (
    all_alpha_marginals,
    average_variation_distance,
    synthetic_marginals,
    tasks_for,
)


@pytest.mark.parametrize("dataset", ["nltcs", "acs", "adult", "br2000"])
class TestAllDatasets:
    def test_release_preserves_schema(self, dataset, rng):
        table = load_dataset(dataset, n=1200, seed=0)
        synthetic = PrivBayes(epsilon=1.0).fit_sample(table, rng=rng)
        assert synthetic.attribute_names == table.attribute_names
        assert synthetic.n == table.n
        for attr in table.attributes:
            col = synthetic.column(attr.name)
            assert col.min() >= 0 and col.max() < attr.size

    def test_marginal_quality_beats_uniform_at_big_epsilon(self, dataset, rng):
        table = load_dataset(dataset, n=3000, seed=0)
        workload = all_alpha_marginals(table, 2)[:15]
        synthetic = PrivBayes(epsilon=5.0).fit_sample(table, rng=rng)
        err = average_variation_distance(
            table, synthetic_marginals(synthetic, workload), workload
        )
        from repro.baselines import UniformMarginals

        uniform_err = average_variation_distance(
            table,
            UniformMarginals().release(table, workload, 5.0, rng),
            workload,
        )
        assert err < uniform_err


@pytest.mark.parametrize("method", sorted(METHODS))
class TestAllMethods:
    def test_release_roundtrip_on_adult(self, method, rng):
        table = load_dataset("adult", n=1000, seed=0)
        synthetic = release_synthetic(table, 1.0, method=method, rng=rng)
        assert synthetic.attribute_names == table.attribute_names
        assert synthetic.n == table.n


class TestPrivacyAccounting:
    @pytest.mark.parametrize("epsilon", [0.05, 0.4, 1.6])
    def test_total_budget_spent_exactly(self, epsilon, rng):
        table = load_dataset("nltcs", n=2000, seed=0)
        model = PrivBayes(epsilon=epsilon).fit(table, rng=rng)
        assert model.accountant.spent <= epsilon + 1e-9
        assert model.accountant.spent == pytest.approx(epsilon)

    def test_general_mode_budget(self, rng):
        table = load_dataset("br2000", n=2000, seed=0)
        model = PrivBayes(epsilon=0.8, generalize=True).fit(table, rng=rng)
        assert model.accountant.spent == pytest.approx(0.8)


class TestSyntheticDataUsability:
    def test_svm_trained_on_synthetic_beats_chance(self, rng):
        table = load_dataset("nltcs", n=6000, seed=0)
        task = tasks_for("nltcs", table)[2]  # bathing: strong signal
        train, test = table.split(0.8, rng)
        synthetic = PrivBayes(epsilon=5.0).fit_sample(train, rng=rng)
        X_syn, y_syn = featurize(synthetic, task)
        X_test, y_test = featurize(test, task)
        model = LinearSVM().fit(X_syn, y_syn)
        err = misclassification_rate(model, X_test, y_test)
        base = min((y_test > 0).mean(), (y_test < 0).mean())
        assert err <= base + 0.02

    def test_epsilon_monotonicity_over_many_runs(self):
        table = load_dataset("nltcs", n=3000, seed=0)
        workload = all_alpha_marginals(table, 2)[:10]

        def err(eps, seed):
            rng = np.random.default_rng(seed)
            synthetic = PrivBayes(epsilon=eps).fit_sample(table, rng=rng)
            return average_variation_distance(
                table, synthetic_marginals(synthetic, workload), workload
            )

        small = np.mean([err(0.05, s) for s in range(4)])
        large = np.mean([err(3.0, s) for s in range(4)])
        assert large < small
