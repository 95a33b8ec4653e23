"""θ-usefulness: Lemma 4.8 ratios, automatic k selection, τ bound."""

import pytest

from repro.core.theta import (
    choose_k_binary,
    usefulness_ratio_binary,
    usefulness_tau,
)


class TestUsefulnessRatio:
    def test_lemma_4_8_formula(self):
        # n=1000, d=10, k=2, eps2=0.8: 1000*0.8 / (8 * 16) = 6.25.
        assert usefulness_ratio_binary(1000, 10, 2, 0.8) == pytest.approx(6.25)

    def test_ratio_decreases_with_k(self):
        ratios = [usefulness_ratio_binary(10_000, 12, k, 1.0) for k in range(8)]
        assert ratios == sorted(ratios, reverse=True)

    def test_out_of_range_k(self):
        with pytest.raises(ValueError):
            usefulness_ratio_binary(100, 5, 5, 1.0)
        with pytest.raises(ValueError):
            usefulness_ratio_binary(100, 5, -1, 1.0)


class TestChooseK:
    def test_large_budget_allows_large_k(self):
        k_small = choose_k_binary(20_000, 16, 0.05, theta=4.0)
        k_large = choose_k_binary(20_000, 16, 1.5, theta=4.0)
        assert k_large >= k_small

    def test_chosen_k_is_theta_useful(self):
        n, d, eps2, theta = 21_574, 16, 0.7, 4.0
        k = choose_k_binary(n, d, eps2, theta)
        assert k >= 1
        assert usefulness_ratio_binary(n, d, k, eps2) >= theta
        # And k+1 would not be (k is the largest).
        if k + 1 < d:
            assert usefulness_ratio_binary(n, d, k + 1, eps2) < theta

    def test_falls_back_to_zero(self):
        # Tiny data + tiny budget: even k=1 is not theta-useful.
        assert choose_k_binary(50, 16, 0.01, theta=4.0) == 0

    def test_single_attribute(self):
        assert choose_k_binary(1000, 1, 1.0, theta=4.0) == 0

    def test_larger_theta_gives_smaller_k(self):
        k_loose = choose_k_binary(30_000, 16, 1.0, theta=1.0)
        k_strict = choose_k_binary(30_000, 16, 1.0, theta=12.0)
        assert k_strict <= k_loose


class TestTau:
    def test_formula(self):
        # tau = n*eps2 / (2*d*theta).
        assert usefulness_tau(1000, 10, 0.8, 4.0) == pytest.approx(10.0)

    def test_monotone_in_budget(self):
        assert usefulness_tau(1000, 10, 1.6, 4.0) > usefulness_tau(1000, 10, 0.1, 4.0)

    def test_monotone_in_theta(self):
        assert usefulness_tau(1000, 10, 1.0, 2.0) > usefulness_tau(1000, 10, 1.0, 8.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            usefulness_tau(0, 10, 1.0, 4.0)
        with pytest.raises(ValueError):
            usefulness_tau(100, 10, 0.0, 4.0)
        with pytest.raises(ValueError):
            usefulness_tau(100, 10, 1.0, -1.0)

    def test_nan_inputs_refused(self):
        """A NaN τ would admit every placed attribute as a parent."""
        with pytest.raises(ValueError, match="epsilon2 must be a finite"):
            usefulness_tau(100, 10, float("nan"), 4.0)
        with pytest.raises(ValueError, match="theta must be positive; got nan"):
            usefulness_tau(100, 10, 1.0, float("nan"))
