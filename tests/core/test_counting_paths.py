"""Property tests: contingency counts on both counting engines against a
per-pair ``np.bincount`` over the raw columns.

:class:`~repro.bn.quality.ParentIndexCache` counts an all-binary table
whose full joint has at most ``MAX_WALSH_CELLS`` cells (and ``n · 2**d``
fits int64) by gathering and inverse-transforming the full joint's
Walsh–Hadamard coefficients; every other table, and every group with a
generalized parent, counts its raw rows.  Generated tables take both
paths: mixed tables with binary and taxonomy attributes, and all-binary
tables with d from 1 to 12, heavy row duplication and binary attributes
that carry a taxonomy; n = 0, 1, 2 and 3 included.  On every path the
grouped counts and their layout, the scorer's counts and scores and the
joint counter's counts must be exactly the reference integers and the
scores computed from them.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.bn.quality as quality
from repro.bn.network import APPair
from repro.bn.quality import MAX_WALSH_CELLS, ParentIndexCache
from repro.core.noisy_conditionals import JointCounter
from repro.core.scores import score_F, score_I, score_R
from repro.core.scoring import CandidateScorer
from repro.data.attribute import Attribute
from repro.data.marginals import domain_size, unflatten_index
from repro.data.table import Table
from repro.data.taxonomy import TaxonomyTree
from repro.datasets import load_adult, load_nltcs

_INT64_MAX = np.iinfo(np.int64).max


def _attribute(name: str, size: int, taxonomy: bool) -> Attribute:
    labels = tuple(f"v{j}" for j in range(size))
    if not taxonomy:
        return Attribute(name, labels)
    if size == 2:
        # One level above the leaves: both values generalize to one.
        tree = TaxonomyTree.from_groups(labels, [("any", labels)])
    else:
        tree = TaxonomyTree.balanced_binary(labels)
    return Attribute(name, labels, taxonomy=tree)


@st.composite
def tables(draw):
    """A mixed table whose rows are drawn from a few distinct rows or are
    all distinct, or an all-binary table of up to 12 attributes whose rows
    repeat heavily."""
    binary = draw(st.booleans())
    if binary:
        d = draw(st.integers(1, 12))
        sizes = [2] * d
    else:
        d = draw(st.integers(1, 4))
        sizes = draw(st.lists(st.integers(2, 6), min_size=d, max_size=d))
    taxonomies = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    n = draw(
        st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 200 if binary else 90))
    )
    duplicated = binary or draw(st.booleans())
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


def _walsh_expected(table: Table) -> bool:
    """The engine rule, from the input alone."""
    d = table.d
    return (
        d >= 1
        and all(attr.size == 2 for attr in table.attributes)
        and 2**d <= quality.MAX_WALSH_CELLS
        and table.n * 2**d <= _INT64_MAX
    )


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


def _random_groups(table: Table, rng: np.random.Generator, count: int = 12):
    """Groups of several widths in one list: up to five parents in
    unsorted order, each at a random level it has, the empty parent set
    included, and one to four children that are not parents."""
    names = list(table.attribute_names)
    groups = [((), tuple(names[: rng.integers(1, min(4, len(names)) + 1)]))]
    for _ in range(count):
        k = int(rng.integers(0, min(5, len(names) - 1) + 1))
        chosen = [names[i] for i in rng.permutation(len(names))[:k]]
        parents = tuple(
            (name, int(rng.integers(table.attribute(name).height)))
            for name in chosen
        )
        rest = [name for name in names if name not in chosen]
        fanout = int(rng.integers(1, min(4, len(rest)) + 1))
        children = tuple(rest[i] for i in rng.permutation(len(rest))[:fanout])
        groups.append((parents, children))
    return groups


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


def _assert_grouped_counts_exact(index: ParentIndexCache, groups) -> None:
    table = index.table
    for (parents, children), counted in zip(groups, index.grouped_counts(groups)):
        block, offsets, lengths, parent_sizes, child_sizes = counted
        expected_parents = tuple(
            int(table.attribute(name).generalization_map(level).max()) + 1
            for name, level in parents
        )
        expected_children = tuple(table.attribute(c).size for c in children)
        expected_lengths = tuple(
            domain_size(expected_parents) * size for size in expected_children
        )
        assert tuple(parent_sizes) == expected_parents
        assert tuple(child_sizes) == expected_children
        assert tuple(lengths) == expected_lengths
        assert tuple(offsets) == tuple(
            int(x) for x in np.cumsum((0,) + expected_lengths)[:-1]
        )
        assert block.dtype == np.int64 and block.shape == (sum(expected_lengths),)
        for child, offset, length in zip(children, offsets, lengths):
            assert np.array_equal(
                block[offset : offset + length],
                _reference_counts(table, child, parents),
            )


def _assert_counts_exact(table: Table) -> None:
    index = ParentIndexCache(table)
    assert (index.coefficients is not None) == _walsh_expected(table)
    # Wide binary tables: single parents keep the candidate count small;
    # the grouped tests reach five parents.
    max_parents = 2 if table.d <= 6 else 1
    candidates = [
        (attr.name, parents)
        for attr in table.attributes
        for parents in _parent_sets(table, attr.name, max_parents)
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
    warmed = JointCounter(table, parent_index=index)
    warmed.warm([APPair(child, parents) for child, parents in candidates])
    for (child, parents), reference in expected.items():
        assert np.array_equal(warmed.counts(APPair(child, parents))[0], reference)
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
@given(tables(), st.integers(0, 2**32 - 1))
def test_grouped_counts_of_several_widths_equal_raw_bincounts(table, seed):
    index = ParentIndexCache(table)
    groups = _random_groups(table, np.random.default_rng(seed))
    _assert_grouped_counts_exact(index, groups)


@settings(max_examples=40, deadline=None)
@given(tables(), st.integers(0, 2**32 - 1))
def test_raw_path_gives_the_walsh_integers(table, seed):
    groups = _random_groups(table, np.random.default_rng(seed))
    walsh = ParentIndexCache(table)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quality, "MAX_WALSH_CELLS", 2**table.d - 1)
        raw = ParentIndexCache(table)
    assert raw.coefficients is None
    for ours, theirs in zip(walsh.grouped_counts(groups), raw.grouped_counts(groups)):
        assert np.array_equal(ours[0], theirs[0])
        assert tuple(ours[1:]) == tuple(theirs[1:])


def test_repeated_attributes_count_like_the_data():
    # A group may name an attribute twice (or make a parent its own
    # child); the joint is then diagonal, as a bincount over the rows
    # gives it.
    rng = np.random.default_rng(3)
    attrs = [Attribute.binary(f"b{j}") for j in range(5)]
    table = Table(attrs, {a.name: rng.integers(0, 2, 60) for a in attrs})
    index = ParentIndexCache(table)
    assert index.coefficients is not None
    groups = [
        ((("b1", 0), ("b1", 0)), ("b2",)),
        ((("b3", 0), ("b0", 0)), ("b3", "b0", "b4")),
    ]
    _assert_grouped_counts_exact(index, groups)


def test_engine_rule_checks_the_int64_bound(monkeypatch):
    # 62 binary attributes within a raised cell cap: with n = 2 the
    # butterfly could reach 2 · 2**62 > int64, so the rows are counted.
    monkeypatch.setattr(quality, "MAX_WALSH_CELLS", 2**70)
    attrs = [Attribute.binary(f"b{j}") for j in range(62)]
    table = Table(attrs, {a.name: np.array([0, 1]) for a in attrs})
    assert not _walsh_expected(table)
    index = ParentIndexCache(table)
    assert index.coefficients is None
    _assert_grouped_counts_exact(
        index, [((("b0", 0), ("b61", 0)), ("b7",)), ((), ("b1",))]
    )


def test_engine_rule_checks_the_cell_cap(monkeypatch):
    attrs = [Attribute.binary(f"b{j}") for j in range(4)]
    table = Table(attrs, {a.name: np.array([0, 1, 1]) for a in attrs})
    assert ParentIndexCache(table).coefficients.shape == (16,)
    monkeypatch.setattr(quality, "MAX_WALSH_CELLS", 8)
    assert ParentIndexCache(table).coefficients is None


def test_generalized_parents_on_mixed_table(mixed_table):
    _assert_counts_exact(mixed_table)  # includes ("color", 1) parents


@pytest.mark.parametrize("n", [0, 1])
def test_tiny_tables(n):
    attrs = [Attribute.binary("a"), Attribute("b", ("x", "y", "z"))]
    table = Table(attrs, {"a": np.ones(n, dtype=np.int64), "b": np.full(n, 2)})
    _assert_counts_exact(table)


def test_single_attribute_table():
    table = Table([Attribute.binary("a")], {"a": np.array([0, 1, 1, 1, 0, 1])})
    index = ParentIndexCache(table)
    # Coefficients of the full joint [2, 4]: the total and 2 - 4.
    assert list(index.coefficients) == [6, -2]
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
    assert index.coefficients is None
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


def test_nltcs_takes_the_walsh_path_and_adult_the_raw_rows():
    nltcs = ParentIndexCache(load_nltcs(seed=1))
    assert nltcs.coefficients is not None
    assert nltcs.coefficients.shape == (2**16,) and 2**16 <= MAX_WALSH_CELLS
    # The empty set's coefficient is the row count.
    assert nltcs.coefficients[0] == nltcs.table.n
    adult = ParentIndexCache(load_adult(seed=1))
    assert adult.coefficients is None
