"""The panel harness of Figures 5-19.

Every panel follows one protocol: for each ε (or β, θ), release synthetic
data repeatedly; score each release by the average total variation
distance over ``Q_α`` (``count`` kind) or by an SVM's misclassification
rate on a held-out 20% split (``svm`` kind); average the repeats.  A
:class:`SweepContext` holds a panel's data and task, each
:class:`~repro.experiments.parallel.SweepCell` one release's ε, seed and
knobs, and :func:`run_series` runs the cells, averages each point's
repeats in cell order and adds the lines to the panel.

The paper evaluates eight (dataset, task) combinations: one counting task
and one classification task per dataset — NLTCS Q4 / Y=outside, ACS Q4 /
Y=dwelling, Adult Q3 / Y=gender, BR2000 Q3 / Y=religion.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.privbayes import PrivBayes
from repro.core.scoring import ScoringCache
from repro.data.table import Table
from repro.datasets import load_dataset
from repro.release import release_synthetic
from repro.svm import LinearSVM, featurize, misclassification_rate
from repro.workloads import (
    all_alpha_marginals,
    average_variation_distance,
    synthetic_marginals,
    tasks_for,
)
from repro.experiments.framework import ExperimentResult, subsample_workload
from repro.experiments.parallel import (
    SweepCell,
    cell_seed,
    get_worker_state,
    mean_reduce,
    run_cells,
)

#: dataset -> (Q_α of the counting task, SVM task index).
SWEEP_TASKS = {
    "nltcs": (4, 0),
    "acs": (4, 0),
    "adult": (3, 0),
    "br2000": (3, 0),
}

#: The metric each context kind scores a release by.
_Y_LABELS = {
    "count": "average variation distance",
    "svm": "misclassification rate",
}


def private_release(
    fit_table: Table,
    epsilon: float,
    beta: float,
    theta: float,
    is_binary: bool,
    rng: np.random.Generator,
    oracle_network: bool = False,
    oracle_marginals: bool = False,
    scoring_cache: Optional[ScoringCache] = None,
) -> Table:
    """One PrivBayes release with the paper's per-dataset defaults.

    Binary datasets run the core directly in binary mode with score ``F``;
    general datasets run Hierarchical-R (general mode with taxonomy
    generalization).  The oracle switches are the Figure 11 diagnostics.
    ``scoring_cache`` shares candidate scores across the many releases of a
    sweep over the same table (see :class:`repro.core.scoring.ScoringCache`).
    """
    pipeline = PrivBayes(
        epsilon=epsilon,
        beta=beta,
        theta=theta,
        score="F" if is_binary else "R",
        mode="binary" if is_binary else "general",
        generalize=not is_binary,
        oracle_network=oracle_network,
        oracle_marginals=oracle_marginals,
    )
    return pipeline.fit_sample(fit_table, rng=rng, scoring_cache=scoring_cache)


class SweepContext:
    """Loaded dataset + one Section 6 task, shared by every cell of a panel.

    ``count`` keeps the full ``Q_α`` (``full_workload``, what a baseline
    budgets for) beside the scored subsample (``workload``); ``svm`` fits
    on an 80% split and keeps the task's training and test features.
    ``alpha`` and ``task_index`` default to the dataset's
    :data:`SWEEP_TASKS` entry.
    """

    def __init__(
        self,
        dataset: str,
        kind: str,
        n: Optional[int] = None,
        max_marginals: Optional[int] = None,
        seed: int = 0,
        alpha: Optional[int] = None,
        task_index: Optional[int] = None,
    ) -> None:
        if kind not in _Y_LABELS:
            raise ValueError("kind must be 'count' or 'svm'")
        self.dataset = dataset
        self.kind = kind
        self.y_label = _Y_LABELS[kind]
        #: Shared across every release of the sweep: candidate scores are
        #: data statistics of the fit table, identical at every ε.
        self.scoring = ScoringCache()
        self.table = load_dataset(dataset, n=n, seed=seed)
        self.is_binary = all(attr.is_binary for attr in self.table.attributes)
        if kind == "count":
            if alpha is None:
                alpha = SWEEP_TASKS[dataset][0]
            self.fit_table = self.table
            self.full_workload = all_alpha_marginals(self.table, alpha)
            self.workload = subsample_workload(
                self.full_workload, max_marginals, seed
            )
        else:
            if task_index is None:
                task_index = SWEEP_TASKS[dataset][1]
            train, test = self.table.split(0.8, np.random.default_rng(seed))
            self.fit_table = train
            self.task = tasks_for(dataset, self.table)[task_index]
            self.X_train, self.y_train = featurize(train, self.task)
            self.X_test, self.y_test = featurize(test, self.task)

    def evaluate(self, synthetic: Table) -> float:
        """Metric of one synthetic release for this context's task.

        ``svm``: the test error of an SVM trained on the release.  A
        degenerate release (single label) cannot train an SVM; it scores
        as the constant majority-label classifier it effectively is.
        """
        if self.kind == "count":
            released = synthetic_marginals(synthetic, self.workload)
            return average_variation_distance(
                self.table, released, self.workload
            )
        X_syn, y_syn = featurize(synthetic, self.task)
        if len(set(y_syn.tolist())) < 2:
            majority = y_syn[0] if y_syn.size else 1.0
            return float(np.mean(self.y_test != majority))
        model = LinearSVM().fit(X_syn, y_syn)
        return misclassification_rate(model, self.X_test, self.y_test)


#: Worker-state key under which a panel's context is fork-inherited.
SWEEP_CONTEXT_KEY = "sweep_common.context"


def release_cell(cell: SweepCell) -> float:
    """One cell: release under the cell's knobs, score the context's metric.

    A cell with a ``method`` param releases through
    :func:`~repro.release.release_synthetic` (the Section 6.3 encodings);
    any other through :func:`private_release` with the context's shared
    scoring cache.  β, θ and the Figure 11 oracle switches travel in
    ``cell.params``; all randomness comes from ``cell.rng()``, so the
    metric is a pure function of the cell — independent of which process
    runs it, or when.
    """
    context: SweepContext = get_worker_state(SWEEP_CONTEXT_KEY)
    method = cell.param("method")
    if method is not None:
        synthetic = release_synthetic(
            context.fit_table,
            cell.epsilon,
            method=method,
            beta=cell.param("beta"),
            theta=cell.param("theta"),
            rng=cell.rng(),
        )
    else:
        synthetic = private_release(
            context.fit_table,
            cell.epsilon,
            cell.param("beta"),
            cell.param("theta"),
            context.is_binary,
            cell.rng(),
            oracle_network=bool(cell.param("oracle_network", False)),
            oracle_marginals=bool(cell.param("oracle_marginals", False)),
            scoring_cache=context.scoring,
        )
    return context.evaluate(synthetic)


def epsilon_cells(
    dataset: str,
    epsilons: Sequence[float],
    repeats: int,
    base_seed: int,
    series: str,
    params: tuple = (),
    seed_series: str = "",
) -> List[SweepCell]:
    """One line's cells over the ε grid, repeat-minor.

    Cell ``(ε_i, r)`` seeds at ``cell_seed(base_seed, 101·i + r,
    seed_series)``, the derivation every ε-grid panel was recorded under.
    """
    return [
        SweepCell(
            dataset,
            epsilon,
            r,
            cell_seed(base_seed, eps_idx * 101 + r, seed_series),
            series=series,
            params=params,
        )
        for eps_idx, epsilon in enumerate(epsilons)
        for r in range(repeats)
    ]


def run_series(
    context: SweepContext,
    result: ExperimentResult,
    series: Dict[str, List[SweepCell]],
    repeats: int,
    jobs: int = 1,
    fn: Callable[[SweepCell], float] = release_cell,
) -> ExperimentResult:
    """Run every line's cells under ``context`` and add the lines' means.

    ``series`` maps a line name to its cells, point-major and
    repeat-minor.  All cells run as one sweep of ``fn`` (``jobs`` forked
    workers are bit-identical to one; see :mod:`repro.experiments.
    parallel`), with the context installed for the workers and dropped
    afterwards, so ``run_all``'s many panels never pile up contexts.  Each
    point's repeats average in cell order, and the lines are added in
    ``series`` order.
    """
    cells = [cell for line in series.values() for cell in line]
    metrics = run_cells(SWEEP_CONTEXT_KEY, context, fn, cells, jobs)
    means = iter(mean_reduce(metrics, repeats))
    for name, line in series.items():
        result.add(name, [next(means) for _ in range(len(line) // repeats)])
    return result
