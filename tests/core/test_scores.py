"""Score functions I, F, R: known values, paper examples, sensitivities.

``score_F``, ``score_I`` and ``score_R`` score one candidate through the
production kernels (see ``core_reference``), so these properties hold of
the floats the library computes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from core_reference import score_F, score_F_bruteforce, score_I, score_R
from repro.core.scores import sensitivity_F, sensitivity_I, sensitivity_R


def _counts_strategy(max_columns=6, max_per_cell=12):
    """Random small contingency tables (binary child)."""
    return st.lists(
        st.tuples(
            st.integers(0, max_per_cell), st.integers(0, max_per_cell)
        ),
        min_size=1,
        max_size=max_columns,
    )


class TestScoreF:
    def test_maximum_joint_distribution_scores_zero(self):
        # Table 3(b)-style: one non-zero per column, each row mass 1/2.
        n = 10
        counts = np.array([[5, 0], [0, 3], [0, 2]], dtype=float).reshape(-1)
        assert score_F(counts, n) == pytest.approx(0.0)

    def test_paper_table3_example(self):
        # Table 3(a): n=10 scaled version of (.6, .1/.1/.1/.1): the minimum
        # L1 distance to a maximum joint distribution is 0.4 → F = -0.2.
        counts = np.array(
            [[6, 1], [0, 1], [0, 1], [0, 1]], dtype=float
        ).reshape(-1)
        assert score_F(counts, 10) == pytest.approx(-0.2)

    def test_uniform_independent(self):
        # All four cells equal: K0 = K1 = 1/4 → shortfall 1/4 + 1/4.
        counts = np.array([[2, 2], [2, 2]], dtype=float).reshape(-1)
        assert score_F(counts, 8) == pytest.approx(-0.5)

    def test_empty_parent_set_column(self):
        counts = np.array([[4, 4]], dtype=float).reshape(-1)
        # Single column: only one of K0/K1 can be fed → best = -0.5.
        assert score_F(counts, 8) == pytest.approx(-0.5)

    def test_nonnegative_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cols = rng.integers(1, 6)
            counts = rng.integers(0, 10, size=(cols, 2)).astype(float)
            n = int(counts.sum())
            if n == 0:
                continue
            f = score_F(counts.reshape(-1), n)
            assert -1.0 <= f <= 0.0

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="binary child"):
            score_F(np.ones(3), 3)

    def test_wrong_total_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            score_F(np.array([1.0, 1.0]), 5)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            score_F(np.array([0.5, 0.5]), 1)

    @given(_counts_strategy())
    @settings(max_examples=150, deadline=None)
    def test_dp_matches_bruteforce(self, cells):
        counts = np.array(cells, dtype=float)
        n = int(counts.sum())
        if n == 0:
            return
        flat = counts.reshape(-1)
        assert score_F(flat, n) == pytest.approx(
            score_F_bruteforce(flat, n), abs=1e-12
        )

    @given(_counts_strategy(max_columns=4, max_per_cell=6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_sensitivity_bound_on_neighbors(self, cells, data):
        """Theorem 4.5: |F(D1) - F(D2)| <= 1/n on neighboring datasets."""
        counts = np.array(cells, dtype=float)
        n = int(counts.sum())
        if n < 1:
            return
        # Move one tuple from an occupied cell to any other cell.
        occupied = np.argwhere(counts > 0)
        if occupied.size == 0:
            return
        src = tuple(occupied[data.draw(st.integers(0, len(occupied) - 1))])
        dst_row = data.draw(st.integers(0, counts.shape[0] - 1))
        dst_col = data.draw(st.integers(0, 1))
        neighbor = counts.copy()
        neighbor[src] -= 1
        neighbor[dst_row, dst_col] += 1
        f1 = score_F(counts.reshape(-1), n)
        f2 = score_F(neighbor.reshape(-1), n)
        assert abs(f1 - f2) <= sensitivity_F(n) + 1e-12


class TestScoreR:
    def test_independent_is_zero(self):
        joint = np.full(4, 0.25)
        assert score_R(joint, 2) == pytest.approx(0.0)

    def test_perfectly_correlated_binary(self):
        joint = np.array([0.5, 0.0, 0.0, 0.5])
        # Independent product is uniform 0.25; L1 distance = 1 → R = 0.5.
        assert score_R(joint, 2) == pytest.approx(0.5)

    def test_pinsker_bound(self):
        """R <= sqrt(I * ln2 / 2) (end of Section 5.3)."""
        rng = np.random.default_rng(1)
        for _ in range(100):
            joint = rng.dirichlet(np.ones(12))
            r = score_R(joint, 3)
            i = score_I(joint, 3)
            assert r <= np.sqrt(np.log(2) / 2.0 * i) + 1e-9

    def test_works_on_non_binary_domains(self):
        rng = np.random.default_rng(2)
        joint = rng.dirichlet(np.ones(15))
        assert 0.0 <= score_R(joint, 5) <= 1.0

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_sensitivity_bound_on_neighbors(self, data):
        """Theorem 5.3: |R(D1) - R(D2)| <= 3/n + 2/n² on neighbors."""
        rows = data.draw(st.integers(1, 4))
        cols = data.draw(st.integers(2, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 100_000)))
        counts = rng.integers(0, 8, size=(rows, cols)).astype(float)
        n = int(counts.sum())
        if n < 1:
            return
        occupied = np.argwhere(counts > 0)
        src = tuple(occupied[data.draw(st.integers(0, len(occupied) - 1))])
        dst = (
            data.draw(st.integers(0, rows - 1)),
            data.draw(st.integers(0, cols - 1)),
        )
        neighbor = counts.copy()
        neighbor[src] -= 1
        neighbor[dst] += 1
        r1 = score_R(counts.reshape(-1) / n, cols)
        r2 = score_R(neighbor.reshape(-1) / n, cols)
        assert abs(r1 - r2) <= sensitivity_R(n) + 1e-12


class TestSensitivities:
    def test_sensitivity_I_binary_formula(self):
        n = 100
        expected = (1 / n) * np.log2(n) + ((n - 1) / n) * np.log2(n / (n - 1))
        assert sensitivity_I(n, binary=True) == pytest.approx(expected)

    def test_sensitivity_I_general_formula(self):
        n = 100
        expected = (2 / n) * np.log2((n + 1) / 2) + ((n - 1) / n) * np.log2(
            (n + 1) / (n - 1)
        )
        assert sensitivity_I(n, binary=False) == pytest.approx(expected)

    def test_general_dominates_binary(self):
        for n in (10, 100, 10_000):
            assert sensitivity_I(n, binary=False) >= sensitivity_I(n, binary=True)

    def test_F_beats_I_by_log_n(self):
        """S(F) < S(I)/log2(n) (Section 4.3)."""
        for n in (100, 1000, 100_000):
            assert sensitivity_F(n) < sensitivity_I(n, binary=True)
            assert sensitivity_F(n) <= (1 / n) * np.log2(n)

    def test_F_a_third_of_R(self):
        """S(F) = 1/n vs S(R) ≈ 3/n (Section 6.2's '1/3' comparison)."""
        n = 10_000
        assert sensitivity_R(n) / sensitivity_F(n) == pytest.approx(3.0, rel=1e-3)

    def test_sensitivity_I_on_neighbors(self):
        """Empirical check of Lemma 4.1 on random binary neighbors."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            counts = rng.integers(0, 10, size=(2, 2)).astype(float)
            n = int(counts.sum())
            if n < 2:
                continue
            occupied = np.argwhere(counts > 0)
            src = tuple(occupied[rng.integers(len(occupied))])
            dst = (int(rng.integers(2)), int(rng.integers(2)))
            neighbor = counts.copy()
            neighbor[src] -= 1
            neighbor[dst] += 1
            i1 = score_I(counts.reshape(-1) / n, 2)
            i2 = score_I(neighbor.reshape(-1) / n, 2)
            assert abs(i1 - i2) <= sensitivity_I(n, binary=True) + 1e-9

    def test_positive_n_required(self):
        with pytest.raises(ValueError):
            sensitivity_F(0)
        with pytest.raises(ValueError):
            sensitivity_R(0)
