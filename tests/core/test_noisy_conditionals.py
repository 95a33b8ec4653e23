"""Distribution learning (Algorithms 1 & 3): structure, noise, derivation."""

import numpy as np
import pytest

from core_reference import PerPairCounter, reference_counts
from repro.bn.network import APPair, BayesianNetwork
from repro.core.greedy_bayes import greedy_bayes_fixed_k
from repro.core.noisy_conditionals import (
    ConditionalTable,
    JointCounter,
    NoisyModel,
    noisy_conditionals_fixed_k,
    noisy_conditionals_general,
)
from repro.data.chunks import TableChunks
from repro.data.marginals import (
    domain_size,
    joint_distribution,
    marginal_counts,
)
from repro.dp.accountant import PrivacyAccountant, PrivacyBudgetError


def _chain_network(names):
    pairs = [APPair.make(names[0], [])]
    for prev, cur in zip(names, names[1:]):
        pairs.append(APPair.make(cur, [prev]))
    return BayesianNetwork(pairs)


class TestGeneral:
    def test_rows_stochastic(self, mixed_table, rng):
        network = _chain_network(list(mixed_table.attribute_names))
        model = noisy_conditionals_general(mixed_table, network, 0.7, rng)
        for cond in model.conditionals:
            assert np.allclose(cond.matrix.sum(axis=1), 1.0)
            assert (cond.matrix >= 0).all()

    def test_one_conditional_per_pair(self, mixed_table, rng):
        network = _chain_network(list(mixed_table.attribute_names))
        model = noisy_conditionals_general(mixed_table, network, 0.7, rng)
        assert len(model.conditionals) == network.d
        assert [c.child for c in model.conditionals] == list(
            network.attribute_order
        )

    def test_budget_charged_per_marginal(self, mixed_table, rng):
        network = _chain_network(list(mixed_table.attribute_names))
        accountant = PrivacyAccountant(0.7)
        noisy_conditionals_general(mixed_table, network, 0.7, rng, accountant)
        assert accountant.spent == pytest.approx(0.7)
        assert len(accountant.ledger) == network.d

    def test_overspend_detected(self, mixed_table, rng):
        network = _chain_network(list(mixed_table.attribute_names))
        accountant = PrivacyAccountant(0.5)
        with pytest.raises(PrivacyBudgetError):
            noisy_conditionals_general(mixed_table, network, 0.7, rng, accountant)

    def test_oracle_mode_is_exact(self, mixed_table, rng):
        network = _chain_network(list(mixed_table.attribute_names))
        model = noisy_conditionals_general(mixed_table, network, None, rng)
        # The root's conditional must equal the empirical marginal exactly.
        root = model.conditionals[0]
        truth = joint_distribution(mixed_table, [root.child])
        assert np.allclose(root.matrix[0], truth)

    def test_noise_shrinks_with_epsilon(self, mixed_table):
        network = _chain_network(list(mixed_table.attribute_names))
        truth = joint_distribution(mixed_table, [network.attribute_order[0]])

        def error(eps, seed):
            model = noisy_conditionals_general(
                mixed_table, network, eps, np.random.default_rng(seed)
            )
            return np.abs(model.conditionals[0].matrix[0] - truth).sum()

        loose = np.mean([error(0.05, s) for s in range(10)])
        tight = np.mean([error(10.0, s) for s in range(10)])
        assert tight < loose

    def test_invalid_epsilon(self, mixed_table, rng):
        network = _chain_network(list(mixed_table.attribute_names))
        with pytest.raises(ValueError):
            noisy_conditionals_general(mixed_table, network, -1.0, rng)


class TestJointCounter:
    def test_counts_match_direct_marginals(self, mixed_table):
        counter = JointCounter(mixed_table)
        names = list(mixed_table.attribute_names)
        pair = APPair.make(names[2], [names[0], names[1]])
        counts, sizes = counter.counts(pair)
        expected = marginal_counts(
            mixed_table, [name for name, _ in pair.parents] + [pair.child]
        )
        np.testing.assert_array_equal(counts, expected.astype(np.int64))
        assert counts.sum() == mixed_table.n
        assert sizes == tuple(
            mixed_table.attribute(name).size
            for name in [n for n, _ in pair.parents] + [pair.child]
        )

    def test_warm_groups_by_parent_set(self, mixed_table):
        """Pairs sharing a parent set are counted in one batched pass and
        each segment equals the per-pair scan."""
        names = list(mixed_table.attribute_names)
        shared = ((names[0], 0),)
        pairs = [
            APPair(names[1], shared),
            APPair(names[2], shared),
            APPair.make(names[0], []),
        ]
        counter = JointCounter(mixed_table)
        counter.warm(pairs)
        assert set(counter._counts) == {(p.child, p.parents) for p in pairs}
        for pair in pairs:
            counts, _ = counter.counts(pair)
            expected = marginal_counts(
                mixed_table, [n for n, _ in pair.parents] + [pair.child]
            )
            np.testing.assert_array_equal(counts, expected.astype(np.int64))

    def test_counts_memoized_and_readonly(self, mixed_table):
        counter = JointCounter(mixed_table)
        pair = APPair.make(mixed_table.attribute_names[1], [])
        first, _ = counter.counts(pair)
        second, _ = counter.counts(pair)
        assert first is second
        with pytest.raises(ValueError):
            first[0] = 99

    def test_generalized_parents(self, mixed_table):
        """Counts over taxonomy-generalized parents match the per-row
        reference count."""
        pair = APPair("warm_flag", (("color", 1),))
        counter = JointCounter(mixed_table)
        counts, sizes = counter.counts(pair)
        expected = reference_counts(mixed_table, "warm_flag", [("color", 1)])
        assert np.array_equal(counts, expected)
        assert sizes == (2, 2)

    def test_counter_for_wrong_table_rejected(self, mixed_table, binary_table, rng):
        network = _chain_network(list(mixed_table.attribute_names))
        with pytest.raises(ValueError, match="different table"):
            noisy_conditionals_general(
                mixed_table, network, 0.7, rng, counter=JointCounter(binary_table)
            )

    def test_batched_and_naive_models_identical(self, mixed_table):
        network = _chain_network(list(mixed_table.attribute_names))
        batched = noisy_conditionals_general(
            mixed_table, network, 0.7, np.random.default_rng(5)
        )
        naive = noisy_conditionals_general(
            mixed_table,
            network,
            0.7,
            np.random.default_rng(5),
            counter=PerPairCounter(mixed_table),
        )
        for a, b in zip(batched.conditionals, naive.conditionals):
            np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_chunked_source_with_per_pair_counter(self, mixed_table):
        """A chunked source counts through whatever counter it is given:
        the per-pair scan over its chunks gives the resident model."""
        network = _chain_network(list(mixed_table.attribute_names))
        resident = noisy_conditionals_general(
            mixed_table, network, 0.7, np.random.default_rng(5)
        )
        source = TableChunks(mixed_table, 7)
        chunked = noisy_conditionals_general(
            source,
            network,
            0.7,
            np.random.default_rng(5),
            counter=PerPairCounter(source),
        )
        for a, b in zip(resident.conditionals, chunked.conditionals):
            assert a.child == b.child and a.parents == b.parents
            np.testing.assert_array_equal(a.matrix, b.matrix)


class TestFixedK:
    def test_first_k_derived_from_anchor(self, binary_table, rng):
        """Algorithm 1: pairs 1..k never touch the data directly."""
        k = 2
        network = greedy_bayes_fixed_k(binary_table, k, 1.0, "F", rng)
        accountant = PrivacyAccountant(0.7)
        model = noisy_conditionals_fixed_k(
            binary_table, network, k, 0.7, rng, accountant
        )
        # Only d - k marginals are charged.
        assert len(accountant.ledger) == binary_table.d - k
        assert accountant.spent == pytest.approx(0.7)
        assert len(model.conditionals) == binary_table.d

    def test_derived_conditionals_consistent_with_anchor(self, binary_table, rng):
        """The derived Pr*[X_1] must equal the anchor joint's marginal."""
        k = 2
        network = greedy_bayes_fixed_k(binary_table, k, 1.0, "F", rng)
        model = noisy_conditionals_fixed_k(binary_table, network, k, 5.0, rng)
        pairs = network.pairs
        root_cond = model.conditional_for(pairs[0].child)
        anchor_cond = model.conditional_for(pairs[k].child)
        # Rebuild the anchor joint: parents of pair k+1 are the first k
        # attributes; its conditional rows were derived from the same noisy
        # joint the root marginal came from — check the root is a proper
        # distribution and matches the anchor's parent marginal direction.
        assert np.allclose(root_cond.matrix.sum(), 1.0)

    def test_k_zero_charges_every_pair(self, binary_table, rng):
        network = _chain_network(list(binary_table.attribute_names))
        # Rebuild as independent structure for k=0.
        independent = BayesianNetwork(
            [APPair.make(name, []) for name in binary_table.attribute_names]
        )
        accountant = PrivacyAccountant(1.0)
        noisy_conditionals_fixed_k(
            binary_table, independent, 0, 1.0, rng, accountant
        )
        assert len(accountant.ledger) == binary_table.d

    def test_invalid_k(self, binary_table, rng):
        network = _chain_network(list(binary_table.attribute_names))
        with pytest.raises(ValueError):
            noisy_conditionals_fixed_k(binary_table, network, 99, 1.0, rng)

    def test_chunked_source_with_per_pair_counter(self, binary_table, rng):
        """Algorithm 1 on a chunked source through the per-pair scan: the
        anchor joint and every later pair match the resident model."""
        k = 2
        network = greedy_bayes_fixed_k(binary_table, k, 1.0, "F", rng)
        resident = noisy_conditionals_fixed_k(
            binary_table, network, k, 0.7, np.random.default_rng(9)
        )
        source = TableChunks(binary_table, 13)
        chunked = noisy_conditionals_fixed_k(
            source,
            network,
            k,
            0.7,
            np.random.default_rng(9),
            counter=PerPairCounter(source),
        )
        for a, b in zip(resident.conditionals, chunked.conditionals):
            assert a.child == b.child and a.parents == b.parents
            np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_conditional_table_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            ConditionalTable(
                child="x",
                parents=(),
                parent_sizes=(),
                child_size=2,
                matrix=np.ones((2, 2)),
            )

    @pytest.mark.parametrize(
        "parent_sizes, child_size",
        [((0,), 2), ((-2, -2), 2), ((), 0)],
        ids=["zero-parent", "negative-parents", "zero-child"],
    )
    def test_conditional_table_domain_sizes_positive(
        self, parent_sizes, child_size
    ):
        rows = domain_size(parent_sizes)
        with pytest.raises(ValueError, match="'x'.*sizes must be positive"):
            ConditionalTable(
                child="x",
                parents=tuple((f"p{i}", 0) for i in range(len(parent_sizes))),
                parent_sizes=parent_sizes,
                child_size=child_size,
                matrix=np.ones((rows, child_size)),
            )

    def test_conditional_for_unknown_child(self, binary_table, rng):
        network = _chain_network(list(binary_table.attribute_names))
        model = noisy_conditionals_general(binary_table, network, 1.0, rng)
        with pytest.raises(KeyError):
            model.conditional_for("nope")

    def test_conditional_for_is_indexed(self, binary_table, rng):
        # Lookups go through a precomputed child -> table dict, not a scan.
        network = _chain_network(list(binary_table.attribute_names))
        model = noisy_conditionals_general(binary_table, network, 1.0, rng)
        for conditional in model.conditionals:
            assert model.conditional_for(conditional.child) is conditional
        assert model._by_child.keys() == {
            t.child for t in model.conditionals
        }


class TestAlgorithm3IsAlgorithm1AtKZero:
    """Algorithm 3 is Algorithm 1 with no derived conditionals."""

    @pytest.mark.parametrize("epsilon2", [0.7, None])
    @pytest.mark.parametrize("generalized", [False, True])
    def test_same_matrices_and_ledger(self, mixed_table, epsilon2, generalized):
        names = list(mixed_table.attribute_names)
        network = _chain_network(names)
        if generalized:
            # The taxonomy level of "color" as a parent of the last pair.
            network = BayesianNetwork(
                list(network.pairs[:-1])
                + [APPair.make(names[-1], [(names[0], 1)])]
            )
        models, ledgers = [], []
        for k in (None, 0):
            accountant = PrivacyAccountant(1.0)
            rng = np.random.default_rng(17)
            if k is None:
                model = noisy_conditionals_general(
                    mixed_table, network, epsilon2, rng, accountant
                )
            else:
                model = noisy_conditionals_fixed_k(
                    mixed_table, network, k, epsilon2, rng, accountant
                )
            models.append(model)
            ledgers.append(accountant.ledger)
        assert ledgers[0] == ledgers[1]
        assert len(ledgers[0]) == (0 if epsilon2 is None else network.d)
        for a, b in zip(models[0].conditionals, models[1].conditionals):
            assert (a.child, a.parents) == (b.child, b.parents)
            np.testing.assert_array_equal(a.matrix, b.matrix)


class TestNoisyModelOwnsTheNetworkRules:
    """A model holds exactly one conditional per network pair, with that
    pair's parents; whoever builds it, a fit or a model file."""

    @staticmethod
    def _pieces():
        network = _chain_network(["a", "b"])
        a = ConditionalTable("a", (), (), 2, np.array([[0.5, 0.5]]))
        b = ConditionalTable(
            "b", (("a", 0),), (2,), 2, np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        return network, a, b

    def test_duplicate_conditional(self):
        network, a, b = self._pieces()
        with pytest.raises(ValueError, match="duplicate conditional .*'a'"):
            NoisyModel(network, (a, b, a))

    def test_missing_conditional(self):
        network, a, _ = self._pieces()
        with pytest.raises(
            ValueError, match=r"missing conditionals for \['b'\]"
        ):
            NoisyModel(network, (a,))

    def test_conditional_without_a_pair(self):
        network, a, b = self._pieces()
        c = ConditionalTable("c", (), (), 2, np.array([[0.5, 0.5]]))
        with pytest.raises(
            ValueError, match=r"conditionals without a network pair: \['c'\]"
        ):
            NoisyModel(network, (a, b, c))

    def test_parents_differ_from_the_pair(self):
        network, a, _ = self._pieces()
        b = ConditionalTable("b", (), (), 2, np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="'b': parents .* network"):
            NoisyModel(network, (a, b))
