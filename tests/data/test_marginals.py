"""Mixed-radix indexing, marginal materialization, normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.attribute import Attribute
from repro.data.marginals import (
    conditional_from_joint,
    domain_size,
    flatten_index,
    joint_distribution,
    marginal_counts,
    normalize_distribution,
    project_distribution,
    unflatten_index,
)
from repro.data.table import Table


class TestFlatten:
    def test_flatten_basic(self):
        first = np.array([0, 0, 1, 1])
        second = np.array([0, 1, 0, 2])
        flat = flatten_index([first, second], [2, 3], 4)
        assert flat.tolist() == [0, 1, 3, 5]
        # The index accumulates in its own array, not in a caller's column.
        assert first.tolist() == [0, 0, 1, 1]
        assert flatten_index([], [], 3).tolist() == [0, 0, 0]

    def test_unflatten_inverse(self):
        flat = np.arange(6)
        codes = unflatten_index(flat, [2, 3])
        assert flatten_index(codes.T, [2, 3], 6).tolist() == flat.tolist()

    def test_int64_overflow_rejected(self):
        # 2**40 * 2**40 cells overflows int64; must raise, not wrap.
        columns = [np.zeros(4, dtype=np.int64)] * 2
        with pytest.raises(ValueError, match="int64 indexing limit"):
            flatten_index(columns, [2**40, 2**40], 4)

    def test_domain_size_is_exact_python_int(self):
        total = domain_size([2**40, 2**40])
        assert total == 2**80  # no wraparound: plain Python int

    def test_widest_legal_domain_accepted(self):
        columns = [np.zeros(2, dtype=np.int64)] * 2
        flat = flatten_index(columns, [2**31, 2**31], 2)  # 2**62 cells: fits
        assert flat.tolist() == [0, 0]

    def test_shape_mismatch_rejected(self):
        # zip would silently drop the second column.
        with pytest.raises(ValueError, match="columns"):
            flatten_index([np.zeros(3, dtype=int)] * 2, [2], 3)
        with pytest.raises(ValueError, match="columns"):
            flatten_index([np.zeros(3, dtype=int)], [2, 2], 3)

    @given(
        sizes=st.lists(st.integers(2, 5), min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, sizes, data):
        rows = data.draw(st.integers(1, 20))
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        columns = [rng.integers(0, s, rows) for s in sizes]
        flat = flatten_index(columns, sizes, rows)
        assert (flat >= 0).all() and (flat < domain_size(sizes)).all()
        assert (unflatten_index(flat, sizes) == np.stack(columns, axis=1)).all()


class TestMarginals:
    def _table(self):
        attrs = [Attribute.binary("a"), Attribute("b", ("x", "y", "z"))]
        return Table(
            attrs, {"a": np.array([0, 0, 1, 1]), "b": np.array([0, 0, 1, 2])}
        )

    def test_counts_sum_to_n(self):
        counts = marginal_counts(self._table(), ["a", "b"])
        assert counts.sum() == 4
        assert counts.size == 6

    def test_counts_layout_child_last(self):
        counts = marginal_counts(self._table(), ["a", "b"])
        # index = a*3 + b
        assert counts[0] == 2  # (a=0, b=0)
        assert counts[4] == 1  # (a=1, b=1)
        assert counts[5] == 1  # (a=1, b=2)

    def test_empty_names_total_count(self):
        assert marginal_counts(self._table(), []).tolist() == [4.0]

    def test_joint_distribution_normalized(self):
        joint = joint_distribution(self._table(), ["a"])
        assert joint.tolist() == [0.5, 0.5]

    def test_single_attribute(self):
        counts = marginal_counts(self._table(), ["b"])
        assert counts.tolist() == [2.0, 1.0, 1.0]


class TestNormalize:
    def test_clips_negatives(self):
        out = normalize_distribution(np.array([0.5, -0.2, 0.5]))
        assert out.tolist() == [0.5, 0.0, 0.5]

    def test_renormalizes(self):
        out = normalize_distribution(np.array([2.0, 2.0]))
        assert out.tolist() == [0.5, 0.5]

    def test_all_negative_falls_back_to_uniform(self):
        out = normalize_distribution(np.array([-1.0, -2.0, -3.0, -4.0]))
        assert np.allclose(out, 0.25)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_always_a_distribution(self, values):
        out = normalize_distribution(np.array(values))
        assert (out >= 0).all()
        assert np.isclose(out.sum(), 1.0)


class TestProjection:
    def test_project_to_first_axis(self):
        joint = np.array([0.1, 0.2, 0.3, 0.4])  # sizes (2, 2)
        out = project_distribution(joint, [2, 2], [0])
        assert np.allclose(out, [0.3, 0.7])

    def test_project_to_second_axis(self):
        joint = np.array([0.1, 0.2, 0.3, 0.4])
        out = project_distribution(joint, [2, 2], [1])
        assert np.allclose(out, [0.4, 0.6])

    def test_project_with_permutation(self):
        joint = np.arange(8, dtype=float) / 28.0  # sizes (2, 2, 2)
        swapped = project_distribution(joint, [2, 2, 2], [1, 0])
        direct = project_distribution(joint, [2, 2, 2], [0, 1])
        assert np.allclose(
            swapped.reshape(2, 2), direct.reshape(2, 2).T
        )

    def test_identity_projection(self):
        joint = np.array([0.25, 0.25, 0.25, 0.25])
        out = project_distribution(joint, [2, 2], [0, 1])
        assert np.allclose(out, joint)


class TestConditional:
    def test_rows_stochastic(self):
        joint = np.array([0.1, 0.3, 0.2, 0.4])
        cond = conditional_from_joint(joint, 2)
        assert np.allclose(cond.sum(axis=1), 1.0)
        assert np.allclose(cond[0], [0.25, 0.75])

    def test_zero_rows_become_uniform(self):
        joint = np.array([0.0, 0.0, 0.5, 0.5])
        cond = conditional_from_joint(joint, 2)
        assert np.allclose(cond[0], [0.5, 0.5])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            conditional_from_joint(np.ones(5) / 5, 2)
