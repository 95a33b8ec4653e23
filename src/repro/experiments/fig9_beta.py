"""Figures 9-10: impact of the budget split β and the usefulness threshold θ.

Figure 9 sweeps β ∈ {.01, .05, .1, .2, .3, .5, .7, .9}; expect the U-shape
with a flat near-optimal basin below the midpoint.  Figure 10 sweeps
θ ∈ {1/2, 1, 2, 3, 4, 6, 8, 12} with β fixed at 0.3; expect a wide
near-optimal basin around θ ∈ [3, 6].  Both draw one line per ε and one
panel per (dataset, task) combination of Section 6.4.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.privbayes import DEFAULT_BETA, DEFAULT_THETA
from repro.experiments.framework import EPSILONS, ExperimentResult
from repro.experiments.parallel import SweepCell, cell_seed
from repro.experiments.sweep_common import SweepContext, run_series

#: The paper's β grid.
BETAS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)

#: The paper's θ grid.
THETAS = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)


def _knob_sweep(
    figure, knob, values, fixed, dataset, kind, epsilons, repeats, n,
    max_marginals, seed, jobs,
) -> ExperimentResult:
    """One panel over ``knob`` (``"beta"`` or ``"theta"``), one line per ε;
    ``fixed`` is the other knob's ``(name, value)``."""
    context = SweepContext(
        dataset, kind, n=n, max_marginals=max_marginals, seed=seed
    )
    result = ExperimentResult(
        experiment=f"{figure}-{dataset}-{kind}",
        title=f"choice of {knob} on {dataset} ({kind})",
        x_label=knob,
        y_label=context.y_label,
        x=list(values),
    )
    series = {
        f"eps={epsilon}": [
            SweepCell(
                dataset,
                epsilon,
                r,
                cell_seed(seed * 7919, eps_idx * 1009 + k_idx * 101 + r),
                params=(fixed, (knob, value)),
            )
            for k_idx, value in enumerate(values)
            for r in range(repeats)
        ]
        for eps_idx, epsilon in enumerate(epsilons)
    }
    return run_series(context, result, series, repeats, jobs)


def run_beta_sweep(
    dataset: str = "nltcs",
    kind: str = "count",
    betas: Sequence[float] = BETAS,
    epsilons: Sequence[float] = EPSILONS,
    repeats: int = 3,
    n: Optional[int] = None,
    max_marginals: Optional[int] = None,
    theta: float = DEFAULT_THETA,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentResult:
    """Reproduce one panel of Figure 9."""
    return _knob_sweep(
        "fig9", "beta", betas, ("theta", theta), dataset, kind, epsilons,
        repeats, n, max_marginals, seed, jobs,
    )


def run_theta_sweep(
    dataset: str = "nltcs",
    kind: str = "count",
    thetas: Sequence[float] = THETAS,
    epsilons: Sequence[float] = EPSILONS,
    repeats: int = 3,
    n: Optional[int] = None,
    max_marginals: Optional[int] = None,
    beta: float = DEFAULT_BETA,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentResult:
    """Reproduce one panel of Figure 10."""
    return _knob_sweep(
        "fig10", "theta", thetas, ("beta", beta), dataset, kind, epsilons,
        repeats, n, max_marginals, seed, jobs,
    )
