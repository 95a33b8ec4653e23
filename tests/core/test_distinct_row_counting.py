"""Property tests: contingency counts over a table's distinct rows against
a per-pair ``np.bincount`` over the raw columns.

:class:`~repro.bn.quality.ParentIndexCache` counts over the distinct rows,
weighted by their multiplicities, when they number at most
``MAX_DISTINCT_SHARE`` of the rows, and over the raw rows otherwise.
Generated tables take both paths (heavy row duplication, all-distinct
rows) and mix binary and taxonomy attributes, parents generalized to
levels >= 1, the empty parent set, n = 0, n = 1 and d = 1.  A table whose
rows do not pack into int64 must keep its raw rows.  On every path the
scorer's counts and scores and the joint counter's counts must be exactly
the reference integers and the scores computed from them.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bn.network import APPair
from repro.bn.quality import MAX_DISTINCT_SHARE, ParentIndexCache
from repro.core.noisy_conditionals import JointCounter
from repro.core.scores import score_F, score_I, score_R
from repro.core.scoring import CandidateScorer
from repro.data.attribute import Attribute
from repro.data.marginals import domain_size, unflatten_index
from repro.data.table import Table
from repro.data.taxonomy import TaxonomyTree
from repro.datasets import load_adult, load_nltcs


def _attribute(name: str, size: int, taxonomy: bool) -> Attribute:
    if size == 2 and not taxonomy:
        return Attribute.binary(name)
    labels = tuple(f"v{j}" for j in range(size))
    return Attribute(
        name, labels, taxonomy=TaxonomyTree.balanced_binary(labels) if taxonomy else None
    )


@st.composite
def tables(draw):
    """A table whose rows are either drawn from a few distinct rows
    (compressed path) or all distinct (raw path)."""
    d = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(2, 6), min_size=d, max_size=d))
    taxonomies = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 90)))
    duplicated = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    domain = domain_size(sizes)
    if duplicated:
        pool = rng.integers(0, domain, max(1, n // 4))
        packed = rng.choice(pool, n)
    else:
        packed = rng.choice(domain, min(n, domain), replace=False)
    columns = unflatten_index(packed, sizes)
    attrs = [
        _attribute(f"x{j}", size, taxonomy)
        for j, (size, taxonomy) in enumerate(zip(sizes, taxonomies))
    ]
    return Table(attrs, {attr.name: columns[:, j] for j, attr in enumerate(attrs)})


def _parent_sets(table: Table, child: str, max_parents: int = 2):
    """Every parent set of up to ``max_parents`` other attributes, each at
    every taxonomy level it has, the empty set included."""
    others = [attr for attr in table.attributes if attr.name != child]
    sets = []
    for size in range(max_parents + 1):
        for chosen in itertools.combinations(others, size):
            for levels in itertools.product(*(range(a.height) for a in chosen)):
                sets.append(tuple((a.name, level) for a, level in zip(chosen, levels)))
    return sets


def _reference_counts(table: Table, child: str, parents) -> np.ndarray:
    """Per-pair ``np.bincount`` over the raw columns (child innermost)."""
    flat = np.zeros(table.n, dtype=np.int64)
    parent_dom = 1
    for name, level in parents:
        mapping = table.attribute(name).generalization_map(level)
        size = int(mapping.max()) + 1
        flat = flat * size + mapping[table.column(name)]
        parent_dom *= size
    child_size = table.attribute(child).size
    return np.bincount(
        flat * child_size + table.column(child), minlength=parent_dom * child_size
    )


def _reference_score(score: str, counts: np.ndarray, n: int, child_size: int) -> float:
    if score == "F":
        return score_F(counts.astype(float), n)
    joint = counts / n if n else counts.astype(float)
    return (score_I if score == "I" else score_R)(joint, child_size)


def _distinct(table: Table) -> int:
    rows = np.stack([table.column(name) for name in table.attribute_names], axis=1)
    return len(np.unique(rows, axis=0)) if table.n else 0


def _assert_counts_exact(table: Table) -> None:
    index = ParentIndexCache(table)
    candidates = [
        (attr.name, parents)
        for attr in table.attributes
        for parents in _parent_sets(table, attr.name)
    ]
    expected = {cand: _reference_counts(table, *cand) for cand in candidates}
    scorer = CandidateScorer(table, "R", parent_index=index)
    counter = JointCounter(table, parent_index=index)
    for (child, parents), reference in expected.items():
        counts, child_size = scorer.counts(child, parents)
        assert counts.dtype == np.float64
        assert np.array_equal(counts, reference.astype(float))
        joint, sizes = counter.counts(APPair(child, parents))
        assert joint.dtype == np.int64
        assert np.array_equal(joint, reference)
        assert sizes[-1] == child_size == table.attribute(child).size
    for score in ("I", "R", "F"):
        scored = [
            cand for cand in candidates
            if score != "F" or table.attribute(cand[0]).size == 2
        ]
        if not scored:
            continue
        values = CandidateScorer(table, score, parent_index=index).score_batch(scored)
        reference = [
            _reference_score(score, expected[cand], table.n, table.attribute(cand[0]).size)
            for cand in scored
        ]
        assert np.array_equal(values, np.array(reference))


@settings(max_examples=60, deadline=None)
@given(tables())
def test_counts_and_scores_equal_raw_bincounts(table):
    _assert_counts_exact(table)


@settings(max_examples=60, deadline=None)
@given(tables())
def test_compression_decision_follows_the_distinct_share(table):
    index = ParentIndexCache(table)
    distinct = _distinct(table)
    compressed = table.n > 0 and distinct <= MAX_DISTINCT_SHARE * table.n
    assert (index.weights is not None) == compressed
    assert index.rows == (distinct if compressed else table.n)
    if compressed:
        assert index.weights.sum() == table.n


def test_generalized_parents_on_mixed_table(mixed_table):
    index = ParentIndexCache(mixed_table)
    assert index.weights is not None  # at most 24 distinct rows of 1500
    _assert_counts_exact(mixed_table)  # includes ("color", 1) parents


@pytest.mark.parametrize("n", [0, 1])
def test_tiny_tables(n):
    attrs = [Attribute.binary("a"), Attribute("b", ("x", "y", "z"))]
    table = Table(attrs, {"a": np.ones(n, dtype=np.int64), "b": np.full(n, 2)})
    assert ParentIndexCache(table).weights is None
    _assert_counts_exact(table)


def test_single_attribute_table():
    table = Table([Attribute.binary("a")], {"a": np.array([0, 1, 1, 1, 0, 1])})
    index = ParentIndexCache(table)
    assert index.rows == 2 and list(index.weights) == [2.0, 4.0]
    _assert_counts_exact(table)


def test_rows_that_do_not_pack_into_int64_stay_raw():
    # Four 2**16-value attributes: a 2**64-cell row domain, past int64.
    wide = [Attribute(f"w{j}", tuple(map(str, range(2**16)))) for j in range(4)]
    attrs = wide + [Attribute.binary("a"), Attribute("b", ("x", "y", "z"))]
    rng = np.random.default_rng(7)
    n = 400
    columns = {attr.name: np.zeros(n, dtype=np.int64) for attr in wide}
    columns["w0"] = rng.integers(0, 2, n)
    columns["a"] = rng.integers(0, 2, n)
    columns["b"] = rng.integers(0, 3, n)
    table = Table(attrs, columns)
    index = ParentIndexCache(table)
    assert index.weights is None and index.rows == n
    candidates = [
        ("a", ()), ("a", (("b", 0),)), ("b", (("a", 0), ("w0", 0))),
        ("w0", (("a", 0),)), ("w1", ()),
    ]
    scorer = CandidateScorer(table, "R", parent_index=index)
    counter = JointCounter(table, parent_index=index)
    for child, parents in candidates:
        reference = _reference_counts(table, child, parents)
        assert np.array_equal(scorer.counts(child, parents)[0], reference)
        assert np.array_equal(counter.counts(APPair(child, parents))[0], reference)


def test_nltcs_compresses_and_adult_does_not():
    nltcs = ParentIndexCache(load_nltcs(seed=1))
    assert nltcs.weights is not None
    assert nltcs.rows <= MAX_DISTINCT_SHARE * nltcs.table.n
    adult = ParentIndexCache(load_adult(seed=1))
    assert adult.weights is None and adult.rows == adult.table.n
