"""Laplace and exponential mechanisms: calibration and sampling behaviour."""

import numpy as np
import pytest

from repro.dp.mechanisms import (
    exponential_mechanism,
    laplace_mechanism,
    laplace_noise,
    laplace_scale,
)

#: ε values no mechanism may accept: NaN passes every sign check.
BAD_EPSILONS = [float("nan"), float("inf"), -float("inf"), 0.0, -1.0]


class _RecordingRng:
    """Stands in for a Generator: records the probabilities of each draw
    and picks index 0."""

    def __init__(self):
        self.probabilities = []

    def choice(self, size, p):
        self.probabilities.append(p)
        return 0


class TestLaplaceNoise:
    def test_zero_scale_is_noiseless(self):
        noise = laplace_noise(0.0, 100, np.random.default_rng(0))
        assert np.all(noise == 0.0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace_noise(-1.0, 10, np.random.default_rng(0))

    def test_empirical_scale(self):
        rng = np.random.default_rng(1)
        noise = laplace_noise(2.0, 200_000, rng)
        # E|Lap(b)| = b; Var = 2b².
        assert abs(np.abs(noise).mean() - 2.0) < 0.05
        assert abs(noise.var() - 8.0) < 0.3

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        noise = laplace_noise(1.0, 200_000, rng)
        assert abs(noise.mean()) < 0.02


class TestLaplaceMechanism:
    def test_shape_preserved(self):
        rng = np.random.default_rng(3)
        values = np.zeros((4, 5))
        out = laplace_mechanism(values, 1.0, 1.0, rng)
        assert out.shape == (4, 5)

    def test_noise_scale_matches_sensitivity_over_epsilon(self):
        rng = np.random.default_rng(4)
        out = laplace_mechanism(np.zeros(200_000), sensitivity=3.0, epsilon=1.5, rng=rng)
        assert abs(np.abs(out).mean() - 2.0) < 0.05  # scale = 3/1.5 = 2

    @pytest.mark.parametrize("epsilon", BAD_EPSILONS)
    def test_invalid_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="finite positive"):
            laplace_mechanism(np.zeros(3), 1.0, epsilon, np.random.default_rng(0))
        with pytest.raises(ValueError, match="finite positive"):
            laplace_scale(1.0, epsilon)

    def test_invalid_sensitivity(self):
        with pytest.raises(ValueError):
            laplace_mechanism(np.zeros(3), -1.0, 1.0, np.random.default_rng(0))


class TestExponentialMechanism:
    def test_sampling_proportional_to_exp_scores(self):
        rng = np.random.default_rng(5)
        scores = np.array([0.0, 1.0])
        sensitivity, epsilon = 1.0, 2.0
        # P(1)/P(0) = exp((1-0) * eps / (2*sens)) = e.
        draws = np.array(
            [
                exponential_mechanism(scores, sensitivity, epsilon, rng)
                for _ in range(30_000)
            ]
        )
        ratio = (draws == 1).sum() / max((draws == 0).sum(), 1)
        assert abs(ratio - np.e) / np.e < 0.12

    def test_probabilities_out(self):
        rng = _RecordingRng()
        exponential_mechanism(np.array([0.0, 1.0]), 1.0, 2.0, rng)
        (probs,) = rng.probabilities
        assert np.isclose(probs.sum(), 1.0)
        assert probs[1] / probs[0] == pytest.approx(np.e)

    def test_zero_sensitivity_picks_argmax(self):
        idx = exponential_mechanism(
            np.array([0.3, 0.9, 0.1]), 0.0, 1.0, np.random.default_rng(0)
        )
        assert idx == 1

    def test_returns_valid_index(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            idx = exponential_mechanism(np.array([1.0, 2.0, 3.0]), 1.0, 0.1, rng)
            assert idx in (0, 1, 2)

    def test_numerical_stability_with_huge_scores(self):
        idx = exponential_mechanism(
            np.array([1e6, 1e6 + 1]), 1e-6, 1.0, np.random.default_rng(0)
        )
        assert idx in (0, 1)

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            exponential_mechanism(np.array([]), 1.0, 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("epsilon", BAD_EPSILONS)
    def test_invalid_epsilon(self, epsilon):
        rng = _RecordingRng()
        with pytest.raises(ValueError, match="finite positive"):
            exponential_mechanism(np.array([1.0, 2.0]), 1.0, epsilon, rng)
        assert rng.probabilities == []

    def test_small_epsilon_flattens_distribution(self):
        rng = _RecordingRng()
        exponential_mechanism(np.array([0.0, 1.0]), 1.0, 1e-6, rng)
        (probs,) = rng.probabilities
        assert abs(probs[0] - 0.5) < 1e-3
