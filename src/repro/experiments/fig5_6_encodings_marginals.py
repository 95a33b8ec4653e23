"""Figures 5-8: the four encodings of Section 6.3.

For each encoding method (Binary-F, Gray-F, Vanilla-R, Hierarchical-R) and
each ε, release a synthetic dataset and score it.  Figures 5-6 report the
average total-variation distance over ``Q_α``, one panel per
Adult/BR2000 × Q2/Q3.  Figures 7-8 use the 80% train / 20% test split of
Section 6.1: a hinge-loss C-SVM (C = 1) is trained per task on each
synthetic release of the training split, and its misclassification rate is
measured on the held-out real test split.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.privbayes import DEFAULT_BETA, DEFAULT_THETA
from repro.experiments.framework import EPSILONS, ExperimentResult
from repro.experiments.sweep_common import (
    SweepContext,
    epsilon_cells,
    run_series,
)
from repro.release import METHODS


def _encodings(context, result, epsilons, repeats, beta, theta, seed):
    """Add one line per encoding method; the cells run serially."""
    series = {
        method: epsilon_cells(
            context.dataset,
            epsilons,
            repeats,
            seed * 7919,
            method,
            params=(("method", method), ("beta", beta), ("theta", theta)),
        )
        for method in METHODS
    }
    return run_series(context, result, series, repeats)


def run_encoding_marginals(
    dataset: str = "adult",
    alpha: int = 2,
    epsilons: Sequence[float] = EPSILONS,
    repeats: int = 3,
    n: Optional[int] = None,
    max_marginals: Optional[int] = None,
    beta: float = DEFAULT_BETA,
    theta: float = DEFAULT_THETA,
    seed: int = 0,
) -> ExperimentResult:
    """Reproduce one panel of Figure 5 (Adult) or Figure 6 (BR2000)."""
    context = SweepContext(
        dataset, "count", n=n, max_marginals=max_marginals, seed=seed,
        alpha=alpha,
    )
    result = ExperimentResult(
        experiment=f"fig5/6-{dataset}-Q{alpha}",
        title=f"encodings on {dataset} Q{alpha}",
        x_label="epsilon",
        y_label=context.y_label,
        x=list(epsilons),
    )
    return _encodings(context, result, epsilons, repeats, beta, theta, seed)


def run_encoding_svm(
    dataset: str = "adult",
    task_index: int = 0,
    epsilons: Sequence[float] = EPSILONS,
    repeats: int = 3,
    n: Optional[int] = None,
    beta: float = DEFAULT_BETA,
    theta: float = DEFAULT_THETA,
    seed: int = 0,
) -> ExperimentResult:
    """Reproduce one panel of Figure 7 (Adult) / Figure 8 (BR2000)."""
    context = SweepContext(
        dataset, "svm", n=n, seed=seed, task_index=task_index
    )
    result = ExperimentResult(
        experiment=f"fig7/8-{dataset}-task{task_index}",
        title=f"encodings on {dataset} ({context.task.name})",
        x_label="epsilon",
        y_label=context.y_label,
        x=list(epsilons),
    )
    return _encodings(context, result, epsilons, repeats, beta, theta, seed)
