"""Experiment harnesses: one module per paper figure/table (Section 6).

Every harness is a pure function from an :class:`ExperimentSpec`-style set
of keyword arguments to an :class:`ExperimentResult` whose series mirror
the lines of the corresponding figure.  ``python -m repro.experiments
<figure>`` runs one harness and prints the series; the benchmark suite
calls the same functions at reduced scale.
"""

from repro.experiments.framework import (
    EPSILONS,
    ExperimentResult,
    render_result,
    subsample_workload,
)
from repro.experiments.parallel import (
    SweepCell,
    SweepExecutor,
    cell_seed,
    mean_reduce,
)
from repro.experiments.table5 import run_table5
from repro.experiments.fig4_scores import run_fig4
from repro.experiments.fig5_6_encodings_marginals import run_encoding_marginals
from repro.experiments.fig7_8_encodings_svm import run_encoding_svm
from repro.experiments.fig9_beta import run_beta_sweep
from repro.experiments.fig10_theta import run_theta_sweep
from repro.experiments.fig11_error_source import run_error_source
from repro.experiments.fig12_15_marginals import run_marginals_comparison
from repro.experiments.fig16_19_svm import run_svm_comparison

__all__ = [
    "EPSILONS",
    "ExperimentResult",
    "SweepCell",
    "SweepExecutor",
    "cell_seed",
    "mean_reduce",
    "render_result",
    "subsample_workload",
    "run_table5",
    "run_fig4",
    "run_encoding_marginals",
    "run_encoding_svm",
    "run_beta_sweep",
    "run_theta_sweep",
    "run_error_source",
    "run_marginals_comparison",
    "run_svm_comparison",
]
