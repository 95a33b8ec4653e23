"""Maximal parent sets (Algorithms 5 & 6): vs brute force, invariants."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parent_sets import (
    ParentSetCache,
    maximal_parent_sets,
    maximal_parent_sets_generalized,
    parent_set_domain_size,
)
from repro.data.attribute import Attribute
from repro.data.marginals import domain_size
from repro.data.taxonomy import TaxonomyTree


def _attrs(sizes):
    return [
        Attribute(f"x{i}", tuple(f"v{j}" for j in range(s)))
        for i, s in enumerate(sizes)
    ]


def _bruteforce_maximal(attrs, tau):
    """Reference: enumerate all subsets, keep feasible maximal ones."""
    if tau < 1.0:
        return set()
    feasible = []
    for r in range(len(attrs) + 1):
        for combo in itertools.combinations(attrs, r):
            size = domain_size([a.size for a in combo]) if combo else 1
            if size <= tau:
                feasible.append(frozenset((a.name, 0) for a in combo))
    maximal = {
        s
        for s in feasible
        if not any(s < other for other in feasible)
    }
    return maximal


class TestAlgorithm5:
    def test_tau_below_one_admits_nothing(self):
        assert maximal_parent_sets(_attrs([2, 2]), 0.5) == []

    def test_empty_attrs_admit_empty_set(self):
        assert maximal_parent_sets([], 4.0) == [frozenset()]

    def test_all_fit(self):
        attrs = _attrs([2, 2])
        result = maximal_parent_sets(attrs, 4.0)
        assert result == [frozenset({("x0", 0), ("x1", 0)})]

    def test_budget_excludes_large_combination(self):
        attrs = _attrs([2, 3])
        result = set(maximal_parent_sets(attrs, 3.0))
        # 2*3=6 > 3, so the maximal sets are the singletons.
        assert result == {
            frozenset({("x0", 0)}),
            frozenset({("x1", 0)}),
        }

    def test_no_set_dominates_another(self):
        attrs = _attrs([2, 3, 4, 2])
        result = maximal_parent_sets(attrs, 12.0)
        for a, b in itertools.combinations(result, 2):
            assert not a < b and not b < a

    def test_every_set_within_budget(self):
        attrs = _attrs([2, 3, 4, 2])
        by_name = {a.name: a for a in attrs}
        for parent_set in maximal_parent_sets(attrs, 12.0):
            assert parent_set_domain_size(parent_set, by_name) <= 12

    @given(
        sizes=st.lists(st.integers(2, 5), min_size=0, max_size=5),
        tau=st.floats(0.5, 200.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce(self, sizes, tau):
        attrs = _attrs(sizes)
        result = set(maximal_parent_sets(attrs, tau))
        assert result == _bruteforce_maximal(attrs, tau)


@st.composite
def _schemas(draw):
    """0-7 attributes of sizes 2-11, about half with a balanced taxonomy."""
    attrs = []
    for i in range(draw(st.integers(0, 7))):
        labels = tuple(f"v{j}" for j in range(draw(st.integers(2, 11))))
        taxed = draw(st.booleans())
        taxonomy = TaxonomyTree.balanced_binary(labels) if taxed else None
        attrs.append(Attribute(f"x{i}", labels, taxonomy=taxonomy))
    return attrs


class TestAlgorithm6:
    def _taxonomied_attrs(self):
        tax4 = TaxonomyTree.from_groups(
            ("a", "b", "c", "d"),
            (("ab", ("a", "b")), ("cd", ("c", "d"))),
        )
        return [
            Attribute("p", ("a", "b", "c", "d"), taxonomy=tax4),
            Attribute("q", ("0", "1")),
        ]

    def test_generalization_used_when_budget_tight(self):
        attrs = self._taxonomied_attrs()
        # tau=4: {p(0), q} costs 8 > 4; {p(1), q} costs 4 ✓.
        result = set(maximal_parent_sets_generalized(attrs, 4.0))
        assert frozenset({("p", 1), ("q", 0)}) in result

    def test_prefers_less_generalized_when_it_fits(self):
        attrs = self._taxonomied_attrs()
        result = set(maximal_parent_sets_generalized(attrs, 8.0))
        assert result == {frozenset({("p", 0), ("q", 0)})}

    @given(
        attrs=_schemas(),
        tau=st.floats(0.5, 1e4),
        order=st.permutations(range(3)),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_taxonomy_reduces_to_algorithm5(self, attrs, tau, order):
        """Algorithm 5 is Algorithm 6 on one level: on the same attributes
        with their taxonomies stripped, the two return the same list, order
        included — from fresh memos, and from one shared cache whatever
        the order of the calls (a generalized call on the taxonomies
        included)."""
        stripped = [replace(attr, taxonomy=None) for attr in attrs]
        plain = maximal_parent_sets(attrs, tau)
        assert plain == maximal_parent_sets_generalized(stripped, tau)
        generalized = maximal_parent_sets_generalized(attrs, tau)
        calls = [
            (maximal_parent_sets, attrs, plain),
            (maximal_parent_sets_generalized, stripped, plain),
            (maximal_parent_sets_generalized, attrs, generalized),
        ]
        cache = ParentSetCache()
        for i in order:
            enumerate_sets, schema, expected = calls[i]
            assert enumerate_sets(schema, tau, cache=cache) == expected

    def test_tau_below_one(self):
        assert maximal_parent_sets_generalized(self._taxonomied_attrs(), 0.9) == []

    def test_domain_budget_respected(self):
        attrs = self._taxonomied_attrs()
        by_name = {a.name: a for a in attrs}
        for tau in (1.0, 2.0, 4.0, 8.0, 16.0):
            for parent_set in maximal_parent_sets_generalized(attrs, tau):
                assert parent_set_domain_size(parent_set, by_name) <= tau

    def test_no_member_refinable(self):
        """Maximality: refining any member one level must bust the budget."""
        attrs = self._taxonomied_attrs()
        by_name = {a.name: a for a in attrs}
        for tau in (2.0, 4.0, 8.0):
            for parent_set in maximal_parent_sets_generalized(attrs, tau):
                for name, level in parent_set:
                    if level == 0:
                        continue
                    refined = (parent_set - {(name, level)}) | {(name, level - 1)}
                    assert parent_set_domain_size(refined, by_name) > tau


def _shuffle(items, order_seed):
    shuffled = list(items)
    np.random.default_rng(order_seed).shuffle(shuffled)
    return shuffled


class TestMemoization:
    """The ParentSetCache path is equivalent to the brute-force recursion.

    The greedy θ-mode loop relies on two properties: a shared memo returns
    exactly what a fresh recursion computes, and the computed *set* of
    maximal parent sets does not depend on the attribute order (greedy
    passes the placed attributes newest-first so each round's subproblems
    hit the previous round's memo entries).
    """

    @given(
        sizes=st.lists(st.integers(2, 5), min_size=0, max_size=5),
        taus=st.lists(st.floats(0.5, 200.0), min_size=1, max_size=4),
        order_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_cached_and_shuffled_match_bruteforce(self, sizes, taus, order_seed):
        attrs = _attrs(sizes)
        cache = ParentSetCache()  # shared across every call below
        for tau in taus:
            reference = _bruteforce_maximal(attrs, tau)
            assert set(maximal_parent_sets(attrs, tau, cache=cache)) == reference
            shuffled = _shuffle(attrs, order_seed)
            assert (
                set(maximal_parent_sets(shuffled, tau, cache=cache)) == reference
            )

    @given(
        spec=st.lists(
            st.tuples(st.integers(2, 5), st.booleans()), min_size=0, max_size=5
        ),
        taus=st.lists(st.floats(0.5, 200.0), min_size=1, max_size=4),
        order_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_generalized_cached_and_shuffled_match_recursion(
        self, spec, taus, order_seed
    ):
        tax = TaxonomyTree.from_groups(
            ("a", "b", "c", "d"), (("ab", ("a", "b")), ("cd", ("c", "d")))
        )
        attrs = []
        for i, (size, taxed) in enumerate(spec):
            if taxed:
                attrs.append(
                    Attribute(f"x{i}", ("a", "b", "c", "d"), taxonomy=tax)
                )
            else:
                attrs.append(
                    Attribute(f"x{i}", tuple(f"v{j}" for j in range(size)))
                )
        cache = ParentSetCache()
        for tau in taus:
            reference = set(maximal_parent_sets_generalized(attrs, tau))
            assert (
                set(maximal_parent_sets_generalized(attrs, tau, cache=cache))
                == reference
            )
            shuffled = _shuffle(attrs, order_seed)
            assert (
                set(maximal_parent_sets_generalized(shuffled, tau, cache=cache))
                == reference
            )

    def test_cache_not_confused_by_same_names_different_sizes(self):
        """Keys carry domain sizes, so schema collisions are impossible."""
        cache = ParentSetCache()
        small = _attrs([2, 2])
        assert maximal_parent_sets(small, 4.0, cache=cache) == [
            frozenset({("x0", 0), ("x1", 0)})
        ]
        large = _attrs([3, 3])  # same names x0/x1, wider domains
        assert set(maximal_parent_sets(large, 4.0, cache=cache)) == {
            frozenset({("x0", 0)}),
            frozenset({("x1", 0)}),
        }

    def test_cache_populates_tail_subproblems(self):
        """Tail subproblems land in the memo, so a later call whose full
        problem is a previous call's tail is a pure cache hit — the
        mechanism greedy's newest-first ordering exploits."""
        cache = ParentSetCache()
        attrs = _attrs([2, 3, 4])
        maximal_parent_sets(attrs, 12.0, cache=cache)
        entries = len(cache._memo)
        result = maximal_parent_sets(attrs[1:], 12.0, cache=cache)
        assert len(cache._memo) == entries  # no new subproblems computed
        assert set(result) == _bruteforce_maximal(attrs[1:], 12.0)


class TestDomainSize:
    def test_empty_set(self):
        assert parent_set_domain_size(frozenset(), {}) == 1

    def test_generalized_member(self):
        tax = TaxonomyTree.from_groups(
            ("a", "b", "c", "d"), (("ab", ("a", "b")), ("cd", ("c", "d")))
        )
        attr = Attribute("p", ("a", "b", "c", "d"), taxonomy=tax)
        assert parent_set_domain_size(frozenset({("p", 0)}), {"p": attr}) == 4
        assert parent_set_domain_size(frozenset({("p", 1)}), {"p": attr}) == 2
