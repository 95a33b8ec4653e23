"""Network quality: sum of MI, exact model joints, KL attribution."""

import numpy as np
import pytest

from bn_reference import exact_model_joint, kl_divergence, model_kl_to_data
from core_reference import reference_counts
from repro.bn.network import APPair, BayesianNetwork
from repro.bn.quality import ParentIndexCache, network_mutual_information
from repro.core.scoring import CandidateScorer
from repro.data.attribute import Attribute
from repro.data.marginals import joint_distribution
from repro.data.table import Table
from repro.data.taxonomy import TaxonomyTree


def _I(table):
    return CandidateScorer(table, "I")


def _chain(names):
    pairs = [APPair.make(names[0], [])]
    pairs += [APPair.make(c, [p]) for p, c in zip(names, names[1:])]
    return BayesianNetwork(pairs)


class TestNetworkMI:
    def test_independent_network_scores_zero(self, binary_table):
        net = BayesianNetwork(
            [APPair.make(n, []) for n in binary_table.attribute_names]
        )
        assert network_mutual_information(net, _I(binary_table)) == 0.0

    def test_chain_on_correlated_data_positive(self, binary_table):
        net = _chain(list(binary_table.attribute_names))
        assert network_mutual_information(net, _I(binary_table)) > 0.2

    def test_better_structure_scores_higher(self, binary_table):
        # b follows a strongly; pairing (b|a) must beat (b|c).
        good = BayesianNetwork(
            [APPair.make("a", []), APPair.make("b", ["a"])]
        )
        t = binary_table.project(["a", "b"])
        bad_t = binary_table.project(["c", "b"])
        bad = BayesianNetwork(
            [APPair.make("c", []), APPair.make("b", ["c"])]
        )
        assert network_mutual_information(good, _I(t)) > network_mutual_information(
            bad, _I(bad_t)
        )

    @pytest.mark.parametrize("score", ["R", "F"])
    def test_needs_an_I_scorer(self, binary_table, score):
        net = _chain(list(binary_table.attribute_names))
        with pytest.raises(ValueError, match=f"'I' scorer, not '{score}'"):
            network_mutual_information(net, CandidateScorer(binary_table, score))

    def test_attribute_outside_the_scorers_table_raises(self, binary_table):
        """The scorer carries the table: a network over other attributes
        is refused, not scored as zero."""
        net = BayesianNetwork(
            [APPair.make("a", []), APPair.make("zz", ["a"])]
        )
        with pytest.raises(KeyError, match="zz"):
            network_mutual_information(net, _I(binary_table))


class TestPairJoint:
    """One AP pair's joint from the shared counting cache, against the
    per-row reference count."""

    def test_layout_child_innermost(self, mixed_table):
        parents = (("color", 0),)
        block, _, _, _, child_sizes = ParentIndexCache(mixed_table).counts(
            parents, ("warm_flag",)
        )
        assert child_sizes == (2,)
        assert block.size == 8
        assert block.sum() == mixed_table.n
        assert np.array_equal(
            block, reference_counts(mixed_table, "warm_flag", parents)
        )

    def test_generalized_parent(self, mixed_table):
        parents = (("color", 1),)
        block, _, _, parent_sizes, _ = ParentIndexCache(mixed_table).counts(
            parents, ("warm_flag",)
        )
        assert parent_sizes == (2,)
        assert block.size == 4
        assert np.array_equal(
            block, reference_counts(mixed_table, "warm_flag", parents)
        )


class TestExactJoint:
    def test_full_network_reproduces_data_joint(self, binary_table):
        """A fully connected network reproduces the empirical joint."""
        names = list(binary_table.attribute_names)
        pairs = []
        for i, name in enumerate(names):
            pairs.append(APPair.make(name, names[:i]))
        net = BayesianNetwork(pairs)
        model = exact_model_joint(binary_table, net)
        truth = joint_distribution(binary_table, names)
        assert np.allclose(model, truth, atol=1e-12)

    def test_model_joint_is_distribution(self, binary_table):
        net = _chain(list(binary_table.attribute_names))
        model = exact_model_joint(binary_table, net)
        assert model.min() >= 0
        assert model.sum() == pytest.approx(1.0)

    def test_kl_zero_for_full_network(self, binary_table):
        names = list(binary_table.attribute_names)
        pairs = [APPair.make(name, names[:i]) for i, name in enumerate(names)]
        net = BayesianNetwork(pairs)
        assert model_kl_to_data(binary_table, net) == pytest.approx(0.0, abs=1e-9)

    def test_kl_decreases_with_better_structure(self, binary_table):
        independent = BayesianNetwork(
            [APPair.make(n, []) for n in binary_table.attribute_names]
        )
        chain = _chain(list(binary_table.attribute_names))
        assert model_kl_to_data(binary_table, chain) <= model_kl_to_data(
            binary_table, independent
        ) + 1e-9

    def test_equation_6_identity(self, binary_table):
        """Eq. 6: D_KL = -Σ I(X_i, Π_i) + Σ H(X_i) - H(A)."""
        from repro.infotheory.measures import entropy

        net = _chain(list(binary_table.attribute_names))
        names = list(binary_table.attribute_names)
        sum_mi = network_mutual_information(net, _I(binary_table))
        sum_h = sum(
            entropy(joint_distribution(binary_table, [n])) for n in names
        )
        h_all = entropy(joint_distribution(binary_table, names))
        expected = -sum_mi + sum_h - h_all
        assert model_kl_to_data(binary_table, net) == pytest.approx(
            expected, abs=1e-9
        )

    def test_oversized_domain_rejected(self):
        rng = np.random.default_rng(0)
        attrs = [
            Attribute(f"x{i}", tuple(str(v) for v in range(30))) for i in range(5)
        ]
        table = Table(
            attrs, {a.name: rng.integers(0, 30, 10) for a in attrs}
        )
        net = _chain([a.name for a in attrs])
        with pytest.raises(ValueError, match="too large"):
            exact_model_joint(table, net)


class TestKL:
    def test_zero_for_identical(self):
        p = np.array([0.3, 0.7])
        assert kl_divergence(p, p) == pytest.approx(0.0)

    def test_infinite_when_support_missing(self):
        assert kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == float(
            "inf"
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            assert kl_divergence(p, q) >= -1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(np.ones(2) / 2, np.ones(3) / 3)
