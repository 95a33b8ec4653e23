"""Classification baselines of Figures 16-19.

* :class:`MajorityClassifier` — counts the positive labels with Laplace
  noise and predicts the (noisy) majority class for every row.
* :class:`PrivateERM` — Chaudhuri, Monteleoni & Sarwate (2011) objective
  perturbation for the Huber-loss SVM (their Algorithm 2).
* :class:`PrivGene` — Zhang et al. (2013): genetic model fitting where
  parent selection runs through the exponential mechanism with the number
  of correctly classified tuples as fitness (sensitivity 1).

Each ``fit`` consumes the ε it is given; the experiment harness splits the
overall budget across the four simultaneous tasks (ε/4 each), matching
Section 6.6, and runs "PrivateERM (Single)" by passing the full ε.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.dp.accountant import check_epsilon, split_epsilon_even
from repro.dp.mechanisms import exponential_mechanism, laplace_noise, laplace_scale
from repro.svm.linear import HuberSVM


class MajorityClassifier:
    """Noisy majority vote (Section 6.1's naïve baseline)."""

    name = "Majority"

    def __init__(self) -> None:
        self.majority: Optional[float] = None

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        epsilon: float,
        rng: np.random.Generator,
    ) -> "MajorityClassifier":
        check_epsilon(epsilon)
        positives = float(np.sum(y > 0))
        noisy = positives + float(
            laplace_noise(laplace_scale(1.0, epsilon), 1, rng)[0]
        )
        self.majority = 1.0 if noisy > len(y) / 2.0 else -1.0
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.majority is None:
            raise RuntimeError("fit must be called before predictions")
        return np.full(X.shape[0], self.majority)


class PrivateERM:
    """Objective perturbation for Huber-SVM ERM (Chaudhuri et al. 2011).

    Requires feature rows with ``||x||₂ ≤ 1`` (the featurizer guarantees
    this).  The Huber loss with corner ``h`` has ``|ℓ''| ≤ c = 1/(2h)``;
    Algorithm 2 of the paper then calibrates a random linear term (and,
    when ε is small relative to λ, extra regularization Δ).
    """

    name = "PrivateERM"

    def __init__(self, lam: float = 0.01, huber_h: float = 0.5) -> None:
        self.lam = lam
        self.huber_h = huber_h
        self.model: Optional[HuberSVM] = None

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        epsilon: float,
        rng: np.random.Generator,
    ) -> "PrivateERM":
        check_epsilon(epsilon)
        n, p = X.shape
        c = 1.0 / (2.0 * self.huber_h)
        lam = self.lam
        eps_prime = epsilon - math.log(
            1.0 + 2.0 * c / (n * lam) + (c * c) / (n * n * lam * lam)
        )
        if eps_prime > 0:
            delta = 0.0
        else:
            delta = c / (n * (math.exp(epsilon / 4.0) - 1.0)) - lam
            eps_prime = epsilon / 2.0
        # b has density ∝ exp(-ε'·||b|| / 2): direction uniform on the
        # sphere, norm ~ Gamma(p, 2/ε').
        direction = rng.standard_normal(p)
        direction /= np.linalg.norm(direction)
        norm = rng.gamma(shape=p, scale=2.0 / eps_prime)
        b = norm * direction
        model = HuberSVM(lam=lam, huber_h=self.huber_h)
        model.fit(X, y, perturbation=b, extra_regularization=delta)
        self.model = model
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("fit must be called before predictions")
        return self.model.predict(X)


class PrivGene:
    """Genetic model fitting with exponential-mechanism selection.

    Fitness of a candidate weight vector is its number of correctly
    classified training tuples (sensitivity 1: one tuple changes the count
    by at most 1 for every candidate).  Each iteration selects
    ``n_parents`` candidates via the exponential mechanism, then refills
    the population with crossover + Gaussian mutation offspring; the
    mutation scale decays over iterations as in the original paper.
    """

    name = "PrivGene"

    def __init__(
        self,
        population: int = 100,
        n_parents: int = 10,
        iterations: int = 10,
        initial_mutation: float = 0.5,
        decay: float = 0.7,
    ) -> None:
        self.population = population
        self.n_parents = n_parents
        self.iterations = iterations
        self.initial_mutation = initial_mutation
        self.decay = decay
        self.weights: Optional[np.ndarray] = None

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        epsilon: float,
        rng: np.random.Generator,
    ) -> "PrivGene":
        check_epsilon(epsilon)
        n, p = X.shape
        selections = self.iterations * self.n_parents
        eps_each = split_epsilon_even(epsilon, selections)
        candidates = rng.standard_normal((self.population, p))
        candidates /= np.linalg.norm(candidates, axis=1, keepdims=True)
        mutation = self.initial_mutation
        parents = candidates[: self.n_parents]
        for _ in range(self.iterations):
            fitness = self._fitness(candidates, X, y)
            chosen = []
            available = list(range(len(candidates)))
            for _ in range(self.n_parents):
                idx = exponential_mechanism(
                    fitness[available], sensitivity=1.0, epsilon=eps_each, rng=rng
                )
                chosen.append(available.pop(idx))
            parents = candidates[chosen]
            candidates = self._offspring(parents, mutation, rng)
            mutation *= self.decay
        # Final model: mean of the last parent set (data-independent given
        # the selections, so no extra budget).
        self.weights = parents.mean(axis=0)
        return self

    def _fitness(self, candidates, X, y) -> np.ndarray:
        margins = (X @ candidates.T) * y[:, None]
        return (margins > 0).sum(axis=0).astype(float)

    def _offspring(self, parents, mutation, rng) -> np.ndarray:
        p = parents.shape[1]
        children = [parents]
        needed = self.population - parents.shape[0]
        mothers = parents[rng.integers(parents.shape[0], size=needed)]
        fathers = parents[rng.integers(parents.shape[0], size=needed)]
        mask = rng.random((needed, p)) < 0.5
        crossed = np.where(mask, mothers, fathers)
        crossed += mutation * rng.standard_normal((needed, p))
        children.append(crossed)
        return np.concatenate(children, axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("fit must be called before predictions")
        return np.where(X @ self.weights >= 0.0, 1.0, -1.0)
