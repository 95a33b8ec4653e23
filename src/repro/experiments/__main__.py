"""CLI experiment runner: ``python -m repro.experiments <experiment> [...]``.

Examples::

    python -m repro.experiments table5
    python -m repro.experiments fig4 --dataset nltcs --fast
    python -m repro.experiments fig12 --dataset nltcs --alpha 3 --repeats 5
    python -m repro.experiments fig16 --dataset adult --task 1
    python -m repro.experiments fig9 --fast --jobs 4

``--fast`` shrinks the dataset, the ε grid and the workload so a panel
finishes in seconds; omit it for paper-scale runs.  ``--jobs N`` fans a
sweep figure's (ε, repeat) cells across N forked workers with
bit-identical output (see :mod:`repro.experiments.parallel`).
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.framework import EPSILONS, FAST_EPSILONS, render_result
from repro.experiments.table5 import render_table5, run_table5
from repro.experiments.fig4_scores import run_fig4
from repro.experiments.fig5_6_encodings_marginals import (
    run_encoding_marginals,
    run_encoding_svm,
)
from repro.experiments.fig9_beta import run_beta_sweep, run_theta_sweep
from repro.experiments.fig11_error_source import run_error_source
from repro.experiments.fig12_15_marginals import run_marginals_comparison
from repro.experiments.fig16_19_svm import run_svm_comparison

_FIGURE_DEFAULT_DATASET = {
    "fig4": "nltcs",
    "fig5": "adult",
    "fig6": "br2000",
    "fig7": "adult",
    "fig8": "br2000",
    "fig9": "nltcs",
    "fig10": "nltcs",
    "fig11": "nltcs",
    "fig12": "nltcs",
    "fig13": "acs",
    "fig14": "adult",
    "fig15": "br2000",
    "fig16": "nltcs",
    "fig17": "acs",
    "fig18": "adult",
    "fig19": "br2000",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate one of the paper's tables/figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_FIGURE_DEFAULT_DATASET) + ["table5"],
        help="which paper artifact to regenerate",
    )
    parser.add_argument("--dataset", default=None, help="override the panel dataset")
    parser.add_argument("--alpha", type=int, default=None, help="Q_alpha width")
    parser.add_argument("--task", type=int, default=0, help="SVM task index (0-3)")
    parser.add_argument(
        "--kind",
        choices=["count", "svm"],
        default="count",
        help="panel kind for fig9/fig10/fig11",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--n", type=int, default=None, help="dataset size override")
    parser.add_argument(
        "--max-marginals", type=int, default=None, help="cap the Q_alpha workload"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--fast",
        action="store_true",
        help="small dataset, reduced epsilon grid, capped workload",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the sweep figures (fig9-fig19); output "
            "is bit-identical to --jobs 1 for any value"
        ),
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be a positive integer")
    if args.experiment == "table5":
        print(render_table5(run_table5(n=args.n, seed=args.seed)))
        return 0

    dataset = args.dataset or _FIGURE_DEFAULT_DATASET[args.experiment]
    epsilons = FAST_EPSILONS if args.fast else EPSILONS
    n = args.n if args.n is not None else (4000 if args.fast else None)
    repeats = args.repeats if args.repeats is not None else (2 if args.fast else 5)
    max_marginals = args.max_marginals
    if args.fast and max_marginals is None:
        max_marginals = 30

    common = dict(dataset=dataset, epsilons=epsilons, repeats=repeats, n=n, seed=args.seed)
    if args.experiment == "fig4":
        result = run_fig4(**common)
    elif args.experiment in ("fig5", "fig6"):
        alpha = args.alpha if args.alpha is not None else 2
        result = run_encoding_marginals(
            alpha=alpha, max_marginals=max_marginals, **common
        )
    elif args.experiment in ("fig7", "fig8"):
        result = run_encoding_svm(task_index=args.task, **common)
    elif args.experiment == "fig9":
        result = run_beta_sweep(
            kind=args.kind, max_marginals=max_marginals, jobs=args.jobs,
            **common,
        )
    elif args.experiment == "fig10":
        result = run_theta_sweep(
            kind=args.kind, max_marginals=max_marginals, jobs=args.jobs,
            **common,
        )
    elif args.experiment == "fig11":
        result = run_error_source(
            kind=args.kind, max_marginals=max_marginals, jobs=args.jobs,
            **common,
        )
    elif args.experiment in ("fig12", "fig13", "fig14", "fig15"):
        default_alpha = 3 if dataset in ("nltcs", "acs") else 2
        alpha = args.alpha if args.alpha is not None else default_alpha
        result = run_marginals_comparison(
            alpha=alpha, max_marginals=max_marginals, jobs=args.jobs,
            **common,
        )
    elif args.experiment in ("fig16", "fig17", "fig18", "fig19"):
        result = run_svm_comparison(
            task_index=args.task, jobs=args.jobs, **common
        )
    else:  # pragma: no cover - argparse guards this
        raise SystemExit(f"unknown experiment {args.experiment}")
    print(render_result(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
