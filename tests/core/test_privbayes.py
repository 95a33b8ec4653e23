"""End-to-end PrivBayes pipeline: modes, budgets, config validation."""

import numpy as np
import pytest

from repro.core.privbayes import PrivBayes, PrivBayesConfig
from repro.data.marginals import joint_distribution
from repro.dp.accountant import PrivacyAccountant, PrivacyBudgetError
from repro.infotheory.measures import total_variation_distance


class TestConfig:
    def test_defaults(self):
        config = PrivBayesConfig(epsilon=1.0)
        assert config.beta == pytest.approx(0.3)
        assert config.theta == pytest.approx(4.0)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            PrivBayesConfig(epsilon=0.0)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            PrivBayesConfig(epsilon=1.0, beta=1.0)

    def test_beta_zero_rejected_at_construction(self):
        # beta = 0 used to be accepted here and only fail deep inside
        # greedy_bayes_* with "epsilon1 must be positive".
        with pytest.raises(ValueError, match="beta must be in \\(0, 1\\)"):
            PrivBayesConfig(epsilon=1.0, beta=0.0)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be non-negative"):
            PrivBayesConfig(epsilon=1.0, k=-1)

    def test_k_rejected_in_general_mode(self):
        # k used to be silently ignored outside binary mode.
        with pytest.raises(ValueError, match="only used in binary mode"):
            PrivBayesConfig(epsilon=1.0, mode="general", k=2)

    def test_k_rejected_when_auto_resolves_to_general(self, mixed_table, rng):
        pipeline = PrivBayes(epsilon=1.0, k=2)  # auto mode: legal config
        with pytest.raises(ValueError, match="only used in binary mode"):
            pipeline.fit(mixed_table, rng=rng)

    def test_invalid_score(self):
        with pytest.raises(ValueError):
            PrivBayesConfig(epsilon=1.0, score="Z")

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            PrivBayesConfig(epsilon=1.0, mode="weird")

    def test_kwargs_override_config(self):
        pipeline = PrivBayes(PrivBayesConfig(epsilon=1.0), beta=0.5)
        assert pipeline.config.beta == pytest.approx(0.5)


class TestBinaryMode:
    def test_fit_sample_roundtrip(self, binary_table, rng):
        synthetic = PrivBayes(epsilon=1.0).fit_sample(binary_table, rng=rng)
        assert synthetic.n == binary_table.n
        assert synthetic.attribute_names == binary_table.attribute_names

    def test_budget_accounted(self, binary_table, rng):
        model = PrivBayes(epsilon=1.0, k=2).fit(binary_table, rng=rng)
        assert model.accountant.spent <= 1.0 + 1e-9
        assert model.accountant.spent == pytest.approx(1.0)

    def test_k_zero_gives_independent_network_and_full_budget(self, binary_table, rng):
        model = PrivBayes(epsilon=1.0, k=0).fit(binary_table, rng=rng)
        assert model.network.degree == 0
        # Footnote 6: no EM charge; everything goes to the marginals.
        labels = [label for label, _ in model.accountant.ledger]
        assert all(label.startswith("marginal") for label in labels)

    def test_theta_chooses_k_automatically(self, binary_table, rng):
        model = PrivBayes(epsilon=1.0).fit(binary_table, rng=rng)
        assert model.k is not None
        assert 0 <= model.k < binary_table.d

    def test_sample_smaller_n(self, binary_table, rng):
        model = PrivBayes(epsilon=1.0).fit(binary_table, rng=rng)
        assert model.sample(10, rng).n == 10

    def test_utility_improves_with_epsilon(self, binary_table):
        def error(eps, seed):
            rng = np.random.default_rng(seed)
            synthetic = PrivBayes(epsilon=eps).fit_sample(binary_table, rng=rng)
            total = 0.0
            for name in binary_table.attribute_names:
                total += total_variation_distance(
                    joint_distribution(binary_table, [name]),
                    joint_distribution(synthetic, [name]),
                )
            return total

        loose = np.mean([error(0.02, s) for s in range(6)])
        tight = np.mean([error(8.0, s) for s in range(6)])
        assert tight < loose

    def test_empty_table_rejected(self, rng):
        from repro.data.attribute import Attribute
        from repro.data.table import Table

        empty = Table([Attribute.binary("a")], {"a": np.array([], dtype=int)})
        with pytest.raises(ValueError, match="empty"):
            PrivBayes(epsilon=1.0).fit(empty, rng=rng)


class TestGeneralMode:
    def test_fit_sample_roundtrip(self, mixed_table, rng):
        synthetic = PrivBayes(epsilon=1.0).fit_sample(mixed_table, rng=rng)
        assert synthetic.n == mixed_table.n
        assert synthetic.attribute_names == mixed_table.attribute_names
        # Codes within domains.
        for attr in mixed_table.attributes:
            col = synthetic.column(attr.name)
            assert col.min() >= 0 and col.max() < attr.size

    def test_auto_mode_detection(self, binary_table, mixed_table, rng):
        binary_model = PrivBayes(epsilon=1.0).fit(binary_table, rng=rng)
        assert binary_model.k is not None  # binary path taken
        general_model = PrivBayes(epsilon=1.0).fit(mixed_table, rng=rng)
        assert general_model.k is None  # general path taken

    def test_generalize_flag(self, mixed_table, rng):
        synthetic = PrivBayes(epsilon=1.0, generalize=True).fit_sample(
            mixed_table, rng=rng
        )
        assert synthetic.n == mixed_table.n

    def test_budget_accounted(self, mixed_table, rng):
        model = PrivBayes(epsilon=0.8).fit(mixed_table, rng=rng)
        assert model.accountant.spent == pytest.approx(0.8)

    def test_F_rejected_in_general_mode(self, mixed_table, rng):
        with pytest.raises(ValueError, match="not computable"):
            PrivBayes(epsilon=1.0, score="F", mode="general").fit(
                mixed_table, rng=rng
            )


class TestOracles:
    def test_oracle_network_skips_em_charge(self, binary_table, rng):
        model = PrivBayes(epsilon=1.0, k=2, oracle_network=True).fit(
            binary_table, rng=rng
        )
        labels = [label for label, _ in model.accountant.ledger]
        assert all(label.startswith("marginal") for label in labels)

    def test_oracle_marginals_are_exact(self, binary_table, rng):
        model = PrivBayes(
            epsilon=1.0, k=1, oracle_marginals=True, first_attribute="a"
        ).fit(binary_table, rng=rng)
        root = model.noisy.conditionals[0]
        truth = joint_distribution(binary_table, [root.child])
        # Root marginal equals the exact empirical marginal (derived from
        # the noiseless anchor joint, which marginalizes exactly).
        assert np.allclose(root.matrix[0], truth)
        anchor = model.noisy.conditionals[model.k]
        assert np.allclose(anchor.matrix.sum(axis=1), 1.0)

    def test_oracles_beat_private_pipeline(self, binary_table):
        """BestMarginal should dominate PrivBayes on marginal error."""

        def error(oracle_marginals, seed):
            rng = np.random.default_rng(seed)
            synthetic = PrivBayes(
                epsilon=0.05, oracle_marginals=oracle_marginals
            ).fit_sample(binary_table, rng=rng)
            total = 0.0
            for name in binary_table.attribute_names:
                total += total_variation_distance(
                    joint_distribution(binary_table, [name]),
                    joint_distribution(synthetic, [name]),
                )
            return total

        private = np.mean([error(False, s) for s in range(8)])
        oracle = np.mean([error(True, s) for s in range(8)])
        assert oracle <= private + 1e-6


class TestExternalAccountant:
    """PrivBayes.fit(..., accountant=...): cumulative ε across fits."""

    def test_fit_charges_whole_epsilon_into_external_ledger(self, binary_table):
        shared = PrivacyAccountant(2.5)
        PrivBayes(epsilon=1.0).fit(
            binary_table, np.random.default_rng(0), accountant=shared
        )
        assert shared.spent == pytest.approx(1.0)
        assert [label for label, _ in shared.ledger] == ["privbayes-fit"]

    def test_repeated_fits_compose_and_then_refuse(self, binary_table):
        shared = PrivacyAccountant(2.0)
        pipeline = PrivBayes(epsilon=1.0)
        pipeline.fit(binary_table, np.random.default_rng(0), accountant=shared)
        pipeline.fit(binary_table, np.random.default_rng(1), accountant=shared)
        assert shared.remaining == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(PrivacyBudgetError):
            pipeline.fit(
                binary_table, np.random.default_rng(2), accountant=shared
            )
        # The refused fit left no partial charge behind.
        assert len(shared.ledger) == 2

    def test_refusal_happens_before_counts(self, binary_table):
        """An unaffordable fit must not touch the data at all."""

        class TripwireTable:
            """Delegates schema probes; explodes on any data access."""

            def __init__(self, inner):
                self._inner = inner
                self.d = inner.d
                self.n = inner.n

            def __getattr__(self, name):
                raise AssertionError(
                    f"fit accessed table.{name} after the budget refusal"
                )

        exhausted = PrivacyAccountant(1.0)
        exhausted.spend("earlier-release", 1.0)
        with pytest.raises(PrivacyBudgetError):
            PrivBayes(epsilon=0.5, mode="binary").fit(
                TripwireTable(binary_table),
                np.random.default_rng(0),
                accountant=exhausted,
            )

    def test_external_accountant_is_bit_identical_to_default(self, binary_table):
        """The reservation consumes no randomness: same seed, same release."""
        plain = PrivBayes(epsilon=1.0).fit_sample(
            binary_table, np.random.default_rng(7)
        )
        shared = PrivacyAccountant(4.0)
        ledgered = PrivBayes(epsilon=1.0).fit_sample(
            binary_table, np.random.default_rng(7), accountant=shared
        )
        for name in binary_table.attribute_names:
            np.testing.assert_array_equal(
                plain.column(name), ledgered.column(name)
            )

    def test_model_keeps_its_own_per_phase_ledger(self, binary_table):
        shared = PrivacyAccountant(3.0)
        model = PrivBayes(epsilon=1.0).fit(
            binary_table, np.random.default_rng(0), accountant=shared
        )
        assert model.accountant is not shared
        assert model.accountant.total_epsilon == 1.0
        # Internal per-phase charges exhaust the fit's own ε as always.
        assert model.accountant.remaining == pytest.approx(0.0, abs=1e-6)

    def test_fit_sample_forwards_accountant(self, binary_table):
        shared = PrivacyAccountant(1.5)
        PrivBayes(epsilon=1.0).fit_sample(
            binary_table, np.random.default_rng(0), accountant=shared
        )
        # Sampling is post-processing: only the fit's reservation landed.
        assert shared.spent == pytest.approx(1.0)


class TestCountingCache:
    @pytest.mark.parametrize("fixture", ["binary_table", "mixed_table"])
    def test_resident_fit_builds_one_counting_cache(
        self, fixture, request, monkeypatch
    ):
        """Scorer and joint counter share one ParentIndexCache per fit."""
        from repro.bn.quality import ParentIndexCache

        built = []
        init = ParentIndexCache.__init__

        def counting_init(self, table):
            built.append(table)
            init(self, table)

        monkeypatch.setattr(ParentIndexCache, "__init__", counting_init)
        table = request.getfixturevalue(fixture)
        PrivBayes(epsilon=1.0).fit_sample(table, np.random.default_rng(0))
        assert len(built) == 1 and built[0] is table
