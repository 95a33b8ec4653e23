"""Figure 11: attributing the error to network vs distribution learning.

Three lines per panel:

* PrivBayes — the real pipeline;
* BestNetwork — unlimited budget for network learning (non-private argmax
  structure; marginals still noisy with ε₂);
* BestMarginal — unlimited budget for distribution learning (private
  structure with ε₁; exact marginals).

The gap PrivBayes − BestNetwork isolates the structure-selection error,
PrivBayes − BestMarginal the marginal-noise error.
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

_VARIANTS = (
    ("PrivBayes", False, False),
    ("BestNetwork", True, False),
    ("BestMarginal", False, True),
)


def run_error_source(
    dataset: str = "nltcs",
    kind: str = "count",
    epsilons: Sequence[float] = EPSILONS,
    repeats: int = 3,
    n: Optional[int] = None,
    max_marginals: Optional[int] = None,
    beta: float = DEFAULT_BETA,
    theta: float = DEFAULT_THETA,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentResult:
    """Reproduce one panel of Figure 11."""
    context = SweepContext(
        dataset, kind, n=n, max_marginals=max_marginals, seed=seed
    )
    result = ExperimentResult(
        experiment=f"fig11-{dataset}-{kind}",
        title=f"source of error on {dataset} ({kind})",
        x_label="epsilon",
        y_label=context.y_label,
        x=list(epsilons),
    )
    # All three variants share one seed per (ε, repeat) cell — the paper's
    # paired-noise diagnostic: identical draws, only the oracle differs.
    series = {
        name: epsilon_cells(
            dataset,
            epsilons,
            repeats,
            seed * 7919,
            name,
            params=(
                ("beta", beta),
                ("theta", theta),
                ("oracle_network", oracle_network),
                ("oracle_marginals", oracle_marginals),
            ),
        )
        for name, oracle_network, oracle_marginals in _VARIANTS
    }
    return run_series(context, result, series, repeats, jobs)
