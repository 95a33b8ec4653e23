"""Reference structure search: Chow-Liu MST and exhaustive DP optimum,
against the greedy learner (Section 4.1)."""

import numpy as np
import pytest

from bn_reference import (
    chow_liu_tree,
    exhaustive_best_network,
    network_score,
    pairwise_mutual_information,
)
from repro.core.greedy_bayes import greedy_bayes_fixed_k
from repro.data.attribute import Attribute
from repro.data.table import Table


@pytest.fixture
def chain_table(rng):
    """a -> b -> c chain plus an independent d."""
    n = 4000
    a = rng.integers(0, 2, n)
    b = np.where(rng.random(n) < 0.92, a, 1 - a)
    c = np.where(rng.random(n) < 0.8, b, 1 - b)
    d = rng.integers(0, 2, n)
    return Table(
        [Attribute.binary(x) for x in "abcd"],
        {"a": a, "b": b, "c": c, "d": d},
    )


class TestPairwiseMI:
    def test_all_pairs_present(self, chain_table):
        weights = pairwise_mutual_information(chain_table)
        assert len(weights) == 6

    def test_strong_edge_dominates(self, chain_table):
        weights = pairwise_mutual_information(chain_table)
        assert weights[("a", "b")] > weights[("a", "c")]
        assert weights[("b", "c")] > weights[("a", "d")]


class TestChowLiu:
    def test_recovers_chain_edges(self, chain_table):
        tree = chow_liu_tree(chain_table, root="a")
        edges = set(tree.edges())
        assert ("a", "b") in edges
        assert ("b", "c") in edges

    def test_tree_degree_is_one(self, chain_table):
        assert chow_liu_tree(chain_table).degree <= 1

    def test_every_attribute_placed(self, chain_table):
        tree = chow_liu_tree(chain_table)
        assert set(tree.attribute_order) == set(chain_table.attribute_names)

    def test_root_is_parentless(self, chain_table):
        tree = chow_liu_tree(chain_table, root="c")
        assert tree.pairs[0].child == "c"
        assert tree.pairs[0].parents == ()

    def test_unknown_root(self, chain_table):
        with pytest.raises(ValueError):
            chow_liu_tree(chain_table, root="zz")

    def test_single_attribute(self, rng):
        t = Table([Attribute.binary("a")], {"a": rng.integers(0, 2, 50)})
        tree = chow_liu_tree(t)
        assert tree.d == 1

    def test_greedy_k1_matches_chow_liu_score(self, chain_table):
        """Section 4.1: greedy argmax with k=1 equals Chow-Liu optimality."""
        tree_score = network_score(chain_table, chow_liu_tree(chain_table, "a"))
        greedy = greedy_bayes_fixed_k(
            chain_table, 1, None, "I",
            np.random.default_rng(0), first_attribute="a",
        )
        assert network_score(chain_table, greedy) == pytest.approx(
            tree_score, abs=1e-9
        )


class TestExhaustive:
    def test_dominates_greedy(self, chain_table):
        """The DP optimum is an upper bound for any greedy construction."""
        best = exhaustive_best_network(chain_table, k=2)
        best_score = network_score(chain_table, best)
        for seed in range(5):
            greedy = greedy_bayes_fixed_k(
                chain_table, 2, None, "I", np.random.default_rng(seed)
            )
            assert best_score >= network_score(chain_table, greedy) - 1e-9

    def test_k1_matches_chow_liu(self, chain_table):
        best = exhaustive_best_network(chain_table, k=1)
        tree = chow_liu_tree(chain_table, "a")
        assert network_score(chain_table, best) == pytest.approx(
            network_score(chain_table, tree), abs=1e-9
        )

    def test_degree_bound_respected(self, chain_table):
        assert exhaustive_best_network(chain_table, k=1).degree <= 1
        assert exhaustive_best_network(chain_table, k=2).degree <= 2

    def test_dimension_guard(self, rng):
        attrs = [Attribute.binary(f"x{i}") for i in range(14)]
        t = Table(attrs, {a.name: rng.integers(0, 2, 20) for a in attrs})
        with pytest.raises(ValueError, match="limited"):
            exhaustive_best_network(t, k=1)

