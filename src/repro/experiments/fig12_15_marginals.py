"""Figures 12-15: PrivBayes vs the marginal-release baselines on Q_α.

NLTCS/ACS (Figures 12-13) compare against Laplace, Fourier, Contingency,
MWEM and Uniform; Adult/BR2000 (Figures 14-15) drop Contingency and MWEM,
whose cost is proportional to the full domain size (Section 6.1).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines import (
    ContingencyMarginals,
    FourierMarginals,
    LaplaceMarginals,
    MWEM,
    UniformMarginals,
)
from repro.core.privbayes import DEFAULT_BETA, DEFAULT_THETA
from repro.experiments.framework import EPSILONS, ExperimentResult
from repro.experiments.parallel import SweepCell, get_worker_state
from repro.experiments.sweep_common import (
    SWEEP_CONTEXT_KEY,
    SweepContext,
    epsilon_cells,
    release_cell,
    run_series,
)
from repro.workloads import average_variation_distance


def _marginals_cell(cell: SweepCell) -> float:
    """One cell: release by the cell's series, score average TVD.

    PrivBayes releases through :func:`release_cell`; a baseline releases
    the workload it was budgeted for (the full ``Q_α`` when the cell's
    ``full_workload`` param is set), and both are scored on the context's
    subsample.
    """
    if cell.series == "PrivBayes":
        return release_cell(cell)
    context: SweepContext = get_worker_state(SWEEP_CONTEXT_KEY)
    workload = (
        context.full_workload if cell.param("full_workload") else context.workload
    )
    released = cell.param("baseline").release(
        context.table, workload, cell.epsilon, cell.rng()
    )
    return average_variation_distance(
        context.table, released, context.workload
    )


def run_marginals_comparison(
    dataset: str = "nltcs",
    alpha: int = 3,
    epsilons: Sequence[float] = EPSILONS,
    repeats: int = 3,
    n: Optional[int] = None,
    max_marginals: Optional[int] = None,
    include_full_domain_baselines: Optional[bool] = None,
    mwem_rounds: int = 40,
    beta: float = DEFAULT_BETA,
    theta: float = DEFAULT_THETA,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentResult:
    """Reproduce one panel of Figures 12-15.

    The full-domain baselines run by default on the binary datasets.
    """
    # The task is answering ALL of Q_alpha: baselines must budget for the
    # full workload.  Scoring may use a subsample (an unbiased estimate of
    # the average TVD) to keep scaled runs tractable.
    context = SweepContext(
        dataset, "count", n=n, max_marginals=max_marginals, seed=seed,
        alpha=alpha,
    )
    if include_full_domain_baselines is None:
        include_full_domain_baselines = context.is_binary
    # (baseline, releases the full Q_alpha): MWEM optimizes for the query
    # set it is handed; giving it only the scored subsample can only
    # favour it.
    baselines = [(LaplaceMarginals(), True), (FourierMarginals(), True)]
    if include_full_domain_baselines:
        baselines += [
            (ContingencyMarginals(), False),
            (MWEM(max_rounds=mwem_rounds), False),
        ]
    baselines.append((UniformMarginals(), False))

    result = ExperimentResult(
        experiment=f"fig12-15-{dataset}-Q{alpha}",
        title=f"Q{alpha} marginals on {dataset} vs baselines",
        x_label="epsilon",
        y_label=context.y_label,
        x=list(epsilons),
    )
    series = {
        "PrivBayes": epsilon_cells(
            dataset, epsilons, repeats, seed * 7919, "PrivBayes",
            params=(("beta", beta), ("theta", theta)),
        )
    }
    # Baseline cells derive their seeds through the series-name offset
    # (cell_seed adds stable_series_seed, not hash(): hash() is salted per
    # process under PYTHONHASHSEED randomization, which once made the
    # baseline series drift run-to-run while PrivBayes rows stayed
    # bit-stable).
    for baseline, full_workload in baselines:
        series[baseline.name] = epsilon_cells(
            dataset, epsilons, repeats, seed * 6271, baseline.name,
            params=(("baseline", baseline), ("full_workload", full_workload)),
            seed_series=baseline.name,
        )
    return run_series(context, result, series, repeats, jobs, _marginals_cell)
