"""Entropy / mutual information / TVD: known values and invariants, and the
exact segmented-sum cores under the ragged ``I`` kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infotheory.measures import (
    _entropy_by_count,
    _sums_by_count,
    entropy,
    mutual_information,
    mutual_information_from_table,
    total_variation_distance,
)


def _ragged_segments(rng, count, max_len=40):
    """Concatenated random vectors (with zeros) and their segment lengths."""
    lengths = rng.integers(0, max_len, size=count)
    values = rng.random(int(lengths.sum()))
    values[rng.random(values.size) < 0.3] = 0.0
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    return values, offsets, lengths


class TestSegmentSums:
    """Exact-sum contract: bit-equal to each segment's standalone .sum()."""

    def test_bit_identical_to_per_segment_sums(self):
        rng = np.random.default_rng(21)
        values, offsets, lengths = _ragged_segments(rng, 200)
        got = _sums_by_count(values, lengths)
        want = np.array(
            [values[o : o + l].sum() for o, l in zip(offsets, lengths)]
        )
        assert np.array_equal(got, want)

    def test_long_segments_cross_pairwise_blocks(self):
        """Lengths beyond NumPy's pairwise-summation block size stay exact."""
        rng = np.random.default_rng(22)
        lengths = np.array([1, 7, 129, 500, 1000])
        values = rng.random(lengths.sum())
        got = _sums_by_count(values, lengths)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        want = np.array(
            [values[o : o + l].sum() for o, l in zip(offsets, lengths)]
        )
        assert np.array_equal(got, want)

    def test_empty_segments_are_zero(self):
        got = _sums_by_count(np.array([1.5, 2.5]), np.array([0, 2, 0, 0]))
        assert np.array_equal(got, np.array([0.0, 4.0, 0.0, 0.0]))

    def test_empty_input(self):
        empty = np.zeros(0, dtype=np.int64)
        assert np.array_equal(
            _sums_by_count(np.zeros(0), np.zeros(3, dtype=np.int64)), np.zeros(3)
        )
        assert _sums_by_count(np.zeros(0), empty).size == 0


class TestEntropyByCount:
    """Each output is bit-equal to entropy() on that segment alone."""

    def test_bit_identical_to_scalar_entropy(self):
        rng = np.random.default_rng(23)
        values, offsets, lengths = _ragged_segments(rng, 150)
        got = _entropy_by_count(values, lengths)
        want = np.array(
            [entropy(values[o : o + l]) for o, l in zip(offsets, lengths)]
        )
        assert np.array_equal(got, want)

    def test_all_zero_segment_matches_scalar(self):
        """entropy() of an all-zero vector is -0.0; segmented agrees."""
        values = np.array([0.0, 0.0, 0.5, 0.5])
        got = _entropy_by_count(values, np.array([2, 2]))
        assert got[0] == entropy(np.zeros(2))
        assert got[1] == entropy(np.array([0.5, 0.5]))

    def test_single_segment_matches_entropy(self):
        rng = np.random.default_rng(24)
        p = rng.dirichlet(np.ones(40))
        p[p < 0.01] = 0.0
        got = _entropy_by_count(p, np.array([p.size]))
        assert got.shape == (1,)
        assert got[0] == entropy(p)

    def test_long_segments_cross_pairwise_blocks(self):
        """Segments longer than NumPy's pairwise block, with zeros to
        compact, stay bit-equal to the scalar entropy."""
        rng = np.random.default_rng(25)
        lengths = np.array([1, 7, 129, 500, 1000])
        values = rng.random(lengths.sum())
        values[rng.random(values.size) < 0.2] = 0.0
        got = _entropy_by_count(values, lengths)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        want = np.array(
            [entropy(values[o : o + l]) for o, l in zip(offsets, lengths)]
        )
        assert np.array_equal(got, want)


class TestEntropy:
    def test_uniform_binary_is_one_bit(self):
        assert entropy(np.array([0.5, 0.5])) == pytest.approx(1.0)

    def test_deterministic_is_zero(self):
        assert entropy(np.array([1.0, 0.0])) == pytest.approx(0.0)

    def test_uniform_k_is_log_k(self):
        assert entropy(np.full(8, 1 / 8)) == pytest.approx(3.0)

    @given(st.lists(st.floats(0.001, 1.0), min_size=2, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, weights):
        p = np.array(weights)
        p /= p.sum()
        h = entropy(p)
        assert -1e-9 <= h <= np.log2(p.size) + 1e-9


class TestMutualInformation:
    def test_independent_is_zero(self):
        # Pr[Π, X] with child innermost; independent uniform bits.
        joint = np.full(4, 0.25)
        assert mutual_information(joint, 2) == pytest.approx(0.0)

    def test_identical_binary_is_one_bit(self):
        joint = np.array([0.5, 0.0, 0.0, 0.5])
        assert mutual_information(joint, 2) == pytest.approx(1.0)

    def test_paper_example_4_4(self):
        # Both maximum joint distributions of Example 4.4 have I = 1.
        left = np.array([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]]).reshape(-1)
        right = np.array([[0.0, 0.5], [0.2, 0.0], [0.3, 0.0]]).reshape(-1)
        assert mutual_information(left, 2) == pytest.approx(1.0)
        assert mutual_information(right, 2) == pytest.approx(1.0)

    def test_never_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            joint = rng.dirichlet(np.ones(12))
            assert mutual_information(joint, 3) >= 0.0

    def test_bounded_by_min_entropy(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            joint = rng.dirichlet(np.ones(8))
            matrix = joint.reshape(4, 2)
            hx = entropy(matrix.sum(axis=0))
            hp = entropy(matrix.sum(axis=1))
            assert mutual_information(joint, 2) <= min(hx, hp) + 1e-9

    def test_entropy_identity(self):
        """Equation 12: I(X, Π) = H(X) + H(Π) - H(X, Π)."""
        rng = np.random.default_rng(7)
        for _ in range(30):
            joint = rng.dirichlet(np.ones(6))
            matrix = joint.reshape(3, 2)
            hx = entropy(matrix.sum(axis=0))
            hp = entropy(matrix.sum(axis=1))
            assert mutual_information(joint, 2) == pytest.approx(
                hx + hp - entropy(joint), abs=1e-12
            )

    def test_deterministic_child_carries_its_entropy(self):
        # X is a function of a 3-valued Π, so H(X | Π) = 0 and I = H(X).
        joint = np.array([[0.2, 0.0], [0.0, 0.5], [0.3, 0.0]]).reshape(-1)
        assert mutual_information(joint, 2) == pytest.approx(
            entropy(np.array([0.5, 0.5]))
        )

    def test_from_table(self, binary_table):
        mi_ab = mutual_information_from_table(binary_table, "b", ["a"])
        mi_ac = mutual_information_from_table(binary_table, "c", ["a"])
        assert mi_ab > 0.3  # b strongly follows a
        assert mi_ac < 0.05  # c independent of a

    def test_from_table_empty_parents(self, binary_table):
        assert mutual_information_from_table(binary_table, "a", []) == 0.0


class TestTVD:
    def test_identical_is_zero(self):
        p = np.array([0.2, 0.8])
        assert total_variation_distance(p, p) == 0.0

    def test_disjoint_is_one(self):
        assert total_variation_distance(
            np.array([1.0, 0.0]), np.array([0.0, 1.0])
        ) == pytest.approx(1.0)

    def test_symmetric(self):
        rng = np.random.default_rng(9)
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        assert total_variation_distance(p, q) == pytest.approx(
            total_variation_distance(q, p)
        )

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_bounds_property(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        assert 0.0 <= total_variation_distance(p, q) <= 1.0
