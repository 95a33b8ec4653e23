"""Figures 16-19: PrivBayes vs classification baselines on the SVM tasks.

Per Section 6.6: PrivBayes generates *one* synthetic dataset per ε and
trains all four classifiers from it; PrivateERM / PrivGene / Majority must
split the budget, training each classifier with ε/4.  "PrivateERM
(Single)" spends the full ε on one classifier — the panel's task — to show
the baseline's single-task headroom.  NoPrivacy is the non-private floor.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines import MajorityClassifier, PrivGene, PrivateERM
from repro.core.privbayes import DEFAULT_BETA, DEFAULT_THETA
from repro.dp.accountant import split_epsilon_even
from repro.experiments.framework import EPSILONS, ExperimentResult
from repro.experiments.parallel import SweepCell, get_worker_state
from repro.experiments.sweep_common import (
    SWEEP_CONTEXT_KEY,
    SweepContext,
    epsilon_cells,
    release_cell,
    run_series,
)
from repro.svm import LinearSVM, misclassification_rate

#: Series fitted per (ε, repeat) cell, besides the NoPrivacy constant.
_SWEPT_SERIES = (
    "PrivBayes",
    "Majority",
    "PrivateERM",
    "PrivateERM (Single)",
    "PrivGene",
)


def _svm_cell(cell: SweepCell) -> float:
    """One cell: fit the cell's series at its ε, score the test error.

    Budget split per Section 6.6: the simultaneous-classifier baselines
    get ε/4, "PrivateERM (Single)" the full ε, and PrivBayes synthesizes
    one dataset from which the panel classifier trains.
    """
    if cell.series == "PrivBayes":
        return release_cell(cell)
    context: SweepContext = get_worker_state(SWEEP_CONTEXT_KEY)
    rng = cell.rng()
    epsilon = cell.epsilon
    X_train, y_train = context.X_train, context.y_train
    if cell.series == "Majority":
        model = MajorityClassifier().fit(
            X_train, y_train, split_epsilon_even(epsilon, 4), rng
        )
    elif cell.series == "PrivateERM":
        model = PrivateERM().fit(
            X_train, y_train, split_epsilon_even(epsilon, 4), rng
        )
    elif cell.series == "PrivateERM (Single)":
        model = PrivateERM().fit(X_train, y_train, epsilon, rng)
    elif cell.series == "PrivGene":
        model = PrivGene(iterations=cell.param("privgene_iterations")).fit(
            X_train, y_train, split_epsilon_even(epsilon, 4), rng
        )
    else:
        raise ValueError(f"unknown series {cell.series!r}")
    return misclassification_rate(model, context.X_test, context.y_test)


def run_svm_comparison(
    dataset: str = "nltcs",
    task_index: int = 0,
    epsilons: Sequence[float] = EPSILONS,
    repeats: int = 3,
    n: Optional[int] = None,
    beta: float = DEFAULT_BETA,
    theta: float = DEFAULT_THETA,
    seed: int = 0,
    privgene_iterations: int = 10,
    jobs: int = 1,
) -> ExperimentResult:
    """Reproduce one panel of Figures 16-19."""
    context = SweepContext(
        dataset, "svm", n=n, seed=seed, task_index=task_index
    )
    result = ExperimentResult(
        experiment=f"fig16-19-{dataset}-task{task_index}",
        title=f"SVM classifiers on {dataset} ({context.task.name})",
        x_label="epsilon",
        y_label=context.y_label,
        x=list(epsilons),
    )

    # NoPrivacy floor (deterministic; constant across ε).
    floor = misclassification_rate(
        LinearSVM().fit(context.X_train, context.y_train),
        context.X_test,
        context.y_test,
    )
    result.add("NoPrivacy", [floor] * len(epsilons))

    # Every series consumes the same seed per (ε, repeat) cell — the same
    # draws the serial loops used, so jobs>1 stays bit-identical.
    params = (
        ("beta", beta),
        ("theta", theta),
        ("privgene_iterations", privgene_iterations),
    )
    series = {
        name: epsilon_cells(
            dataset, epsilons, repeats, seed * 7919, name, params=params
        )
        for name in _SWEPT_SERIES
    }
    return run_series(context, result, series, repeats, jobs, _svm_cell)
