"""Shared task plumbing for the parameter-sweep figures (9, 10, 11).

The paper evaluates eight (dataset, task) combinations: one counting task
and one classification task per dataset — NLTCS Q4 / Y=outside, ACS Q4 /
Y=dwelling, Adult Q3 / Y=gender, BR2000 Q3 / Y=religion.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.privbayes import PrivBayes
from repro.core.scoring import ScoringCache
from repro.data.table import Table
from repro.datasets import load_dataset
from repro.svm import LinearSVM, featurize, misclassification_rate
from repro.workloads import (
    all_alpha_marginals,
    average_variation_distance,
    synthetic_marginals,
    tasks_for,
)
from repro.experiments.framework import subsample_workload
from repro.experiments.parallel import (
    SweepCell,
    get_worker_state,
    run_cells,
)

#: dataset -> (Q_α for the counting task, SVM task index, release method).
SWEEP_TASKS = {
    "nltcs": (4, 0, "binary-F"),
    "acs": (4, 0, "binary-F"),
    "adult": (3, 0, "hierarchical-R"),
    "br2000": (3, 0, "hierarchical-R"),
}

#: Binary datasets run the core directly (no bit encoding needed).
_NATIVE_BINARY = {"nltcs", "acs"}


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
    if is_binary:
        pipeline = PrivBayes(
            epsilon=epsilon,
            beta=beta,
            theta=theta,
            score="F",
            mode="binary",
            oracle_network=oracle_network,
            oracle_marginals=oracle_marginals,
        )
    else:
        pipeline = PrivBayes(
            epsilon=epsilon,
            beta=beta,
            theta=theta,
            score="R",
            mode="general",
            generalize=True,
            oracle_network=oracle_network,
            oracle_marginals=oracle_marginals,
        )
    return pipeline.fit_sample(fit_table, rng=rng, scoring_cache=scoring_cache)


class SweepContext:
    """Loaded dataset + the two Section 6.4 tasks, reused across a sweep."""

    def __init__(
        self,
        dataset: str,
        kind: str,
        n: Optional[int] = None,
        max_marginals: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if kind not in ("count", "svm"):
            raise ValueError("kind must be 'count' or 'svm'")
        self.dataset = dataset
        self.kind = kind
        self.seed = seed
        #: Shared across every release of the sweep: candidate scores are
        #: data statistics of the fit table, identical at every ε.
        self.scoring = ScoringCache()
        alpha, task_index, _ = SWEEP_TASKS[dataset]
        self.table = load_dataset(dataset, n=n, seed=seed)
        if kind == "count":
            self.reference = self.table
            self.fit_table = self.table
            self.workload = subsample_workload(
                all_alpha_marginals(self.table, alpha), max_marginals, seed
            )
        else:
            split_rng = np.random.default_rng(seed)
            train, test = self.table.split(0.8, split_rng)
            self.fit_table = train
            self.task = tasks_for(dataset, self.table)[task_index]
            self.X_test, self.y_test = featurize(test, self.task)

    @property
    def is_binary(self) -> bool:
        return self.dataset in _NATIVE_BINARY

    def evaluate(self, synthetic: Table) -> float:
        """Metric of one synthetic release for this context's task."""
        if self.kind == "count":
            released = synthetic_marginals(synthetic, self.workload)
            return average_variation_distance(
                self.reference, released, self.workload
            )
        return evaluate_svm_synthetic(
            synthetic, self.task, self.X_test, self.y_test
        )


def evaluate_svm_synthetic(synthetic, task, X_test, y_test) -> float:
    """Test error of an SVM trained on a synthetic release.

    A degenerate release (single label) cannot train an SVM; score it as
    the constant majority-label classifier it effectively is.  Shared by
    the svm-kind sweeps (fig 9-11) and the fig 16-19 comparison so the
    fallback semantics cannot drift apart.
    """
    X_syn, y_syn = featurize(synthetic, task)
    if len(set(y_syn.tolist())) < 2:
        majority = y_syn[0] if y_syn.size else 1.0
        return float(np.mean(y_test != majority))
    model = LinearSVM().fit(X_syn, y_syn)
    return misclassification_rate(model, X_test, y_test)


#: Worker-state key under which the sweep's context is fork-inherited.
SWEEP_CONTEXT_KEY = "sweep_common.context"


def run_sweep_cells(context: SweepContext, cells, jobs: int = 1):
    """Map :func:`release_cell` over ``cells`` under ``context``.

    Installs the context for the (possibly forked) workers, runs the
    sweep, and always drops the state afterwards so batch drivers don't
    accumulate one context per panel.
    """
    return run_cells(SWEEP_CONTEXT_KEY, context, release_cell, cells, jobs)


def release_cell(cell: SweepCell) -> float:
    """One sweep cell: release under the cell's knobs, score the metric.

    The β/θ and Figure 11 oracle switches travel in ``cell.params``; all
    randomness comes from ``cell.rng()``, so the metric is a pure function
    of the cell — independent of which process runs it, or when.
    """
    context: SweepContext = get_worker_state(SWEEP_CONTEXT_KEY)
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
