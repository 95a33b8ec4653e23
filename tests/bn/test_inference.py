"""Exact model inference (variable elimination) vs truth and sampling."""

import numpy as np
import pytest

from repro.bn.inference import model_marginal, model_marginals
from repro.bn.network import APPair, BayesianNetwork
from repro.core.noisy_conditionals import (
    ConditionalTable,
    NoisyModel,
    noisy_conditionals_general,
)
from repro.core.privbayes import PrivBayes
from repro.core.sampler import sample_synthetic
from repro.data.attribute import Attribute
from repro.data.marginals import joint_distribution
from repro.data.taxonomy import TaxonomyTree
from repro.infotheory.measures import total_variation_distance


def _oracle_model(table):
    """Noiseless chain model over the table's attributes."""
    names = list(table.attribute_names)
    network = BayesianNetwork(
        [APPair.make(names[0], [])]
        + [APPair.make(c, [p]) for p, c in zip(names, names[1:])]
    )
    model = noisy_conditionals_general(
        table, network, None, np.random.default_rng(0)
    )
    return model


class TestExactness:
    def test_chain_pairwise_marginals_exact(self, binary_table):
        """Adjacent-pair marginals of a chain model equal the data's."""
        model = _oracle_model(binary_table)
        names = list(binary_table.attribute_names)
        for prev, cur in zip(names, names[1:]):
            inferred = model_marginal(
                model, binary_table.attributes, [prev, cur]
            )
            truth = joint_distribution(binary_table, [prev, cur])
            assert np.allclose(inferred, truth, atol=1e-12)

    def test_single_attribute_marginals_exact(self, binary_table):
        model = _oracle_model(binary_table)
        for name in binary_table.attribute_names:
            inferred = model_marginal(model, binary_table.attributes, [name])
            truth = joint_distribution(binary_table, [name])
            assert np.allclose(inferred, truth, atol=1e-12)

    def test_query_order_is_respected(self, binary_table):
        model = _oracle_model(binary_table)
        ab = model_marginal(model, binary_table.attributes, ["a", "b"])
        ba = model_marginal(model, binary_table.attributes, ["b", "a"])
        assert np.allclose(ab.reshape(2, 2), ba.reshape(2, 2).T)

    def test_full_joint_matches_model(self, binary_table):
        from bn_reference import exact_model_joint

        model = _oracle_model(binary_table)
        names = list(binary_table.attribute_names)
        inferred = model_marginal(model, binary_table.attributes, names)
        reference = exact_model_joint(binary_table, model.network)
        assert np.allclose(inferred, reference, atol=1e-12)


class TestVsSampling:
    def test_inference_beats_sampling_noise(self, binary_table):
        """Model-based answers remove the sampling error entirely —
        the paper's concluding-remarks conjecture."""
        model = _oracle_model(binary_table)
        rng = np.random.default_rng(1)
        synthetic = sample_synthetic(
            model, binary_table.attributes, binary_table.n, rng
        )
        names = ["a", "b"]
        truth = joint_distribution(binary_table, names)
        inferred = model_marginal(model, binary_table.attributes, names)
        sampled = joint_distribution(synthetic, names)
        assert total_variation_distance(inferred, truth) <= (
            total_variation_distance(sampled, truth) + 1e-12
        )

    def test_on_fitted_privbayes_model(self, binary_table, rng):
        fitted = PrivBayes(epsilon=2.0).fit(binary_table, rng=rng)
        answers = model_marginals(
            fitted.noisy, binary_table.attributes, [("a", "b"), ("c", "d")]
        )
        for dist in answers.values():
            assert dist.min() >= -1e-12
            assert dist.sum() == pytest.approx(1.0)


class TestGeneralizedParents:
    def test_generalized_parent_inference(self):
        tax = TaxonomyTree.from_groups(
            ("a", "b", "c", "d"), (("ab", ("a", "b")), ("cd", ("c", "d")))
        )
        attrs = [
            Attribute("p", ("a", "b", "c", "d"), taxonomy=tax),
            Attribute.binary("q"),
        ]
        network = BayesianNetwork(
            [APPair.make("p", []), APPair.make("q", [("p", 1)])]
        )
        conditionals = (
            ConditionalTable("p", (), (), 4, np.array([[0.1, 0.2, 0.3, 0.4]])),
            ConditionalTable(
                "q", (("p", 1),), (2,), 2, np.array([[1.0, 0.0], [0.0, 1.0]])
            ),
        )
        model = NoisyModel(network, conditionals)
        # Pr[q=1] = Pr[p in {c, d}] = 0.7.
        marginal = model_marginal(model, attrs, ["q"])
        assert np.allclose(marginal, [0.3, 0.7])
        joint = model_marginal(model, attrs, ["p", "q"])
        assert np.allclose(
            joint.reshape(4, 2),
            [[0.1, 0.0], [0.2, 0.0], [0.0, 0.3], [0.0, 0.4]],
        )


class TestValidation:
    def test_unknown_attribute(self, binary_table):
        model = _oracle_model(binary_table)
        with pytest.raises(KeyError):
            model_marginal(model, binary_table.attributes, ["nope"])

    def test_duplicate_query(self, binary_table):
        model = _oracle_model(binary_table)
        with pytest.raises(ValueError, match="distinct"):
            model_marginal(model, binary_table.attributes, ["a", "a"])

    def test_factor_size_guard(self, binary_table):
        model = _oracle_model(binary_table)
        with pytest.raises(ValueError, match="cells"):
            model_marginal(
                model,
                binary_table.attributes,
                list(binary_table.attribute_names),
                max_factor_cells=2,
            )
