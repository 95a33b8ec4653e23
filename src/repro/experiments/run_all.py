"""Run the full experiment battery and write a consolidated report.

``python -m repro.experiments.run_all --scale fast --out results/`` runs
every figure panel at the chosen scale, saves one JSON per panel plus a
plain-text report with all rendered series.  The ``paper`` scale uses the
full ε grid and default dataset sizes (hours, like the original study);
``fast`` finishes in minutes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.experiments.framework import (
    EPSILONS,
    FAST_EPSILONS,
    ExperimentResult,
    render_result,
)
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

#: Scale presets: (n, repeats, epsilons, max_marginals).
SCALES = {
    "fast": dict(n=2000, repeats=2, epsilons=FAST_EPSILONS, max_marginals=20),
    "medium": dict(n=8000, repeats=3, epsilons=EPSILONS, max_marginals=60),
    "paper": dict(n=None, repeats=10, epsilons=EPSILONS, max_marginals=None),
}


def battery(
    scale: Dict, jobs: int = 1
) -> List[Tuple[str, Callable[[], ExperimentResult]]]:
    """The full panel list, bound to one scale preset.

    ``jobs`` fans each sweep panel's (ε, repeat) cells across that many
    forked workers (figures 9-19; see
    :mod:`repro.experiments.parallel`) — output is bit-identical to
    ``jobs=1`` for every worker count.
    """
    n = scale["n"]
    repeats = scale["repeats"]
    epsilons = scale["epsilons"]
    cap = scale["max_marginals"]
    panels: List[Tuple[str, Callable[[], ExperimentResult]]] = []

    for dataset in ("nltcs", "acs", "adult", "br2000"):
        panels.append(
            (
                f"fig4-{dataset}",
                lambda d=dataset: run_fig4(
                    dataset=d, epsilons=epsilons, repeats=repeats, n=n
                ),
            )
        )
    for dataset, alphas in (("adult", (2, 3)), ("br2000", (2, 3))):
        for alpha in alphas:
            panels.append(
                (
                    f"fig5/6-{dataset}-Q{alpha}",
                    lambda d=dataset, a=alpha: run_encoding_marginals(
                        dataset=d, alpha=a, epsilons=epsilons,
                        repeats=repeats, n=n, max_marginals=cap,
                    ),
                )
            )
        for task in range(4):
            panels.append(
                (
                    f"fig7/8-{dataset}-task{task}",
                    lambda d=dataset, t=task: run_encoding_svm(
                        dataset=d, task_index=t, epsilons=epsilons,
                        repeats=repeats, n=n,
                    ),
                )
            )
    for dataset in ("nltcs", "acs", "adult", "br2000"):
        for kind in ("count", "svm"):
            panels.append(
                (
                    f"fig9-{dataset}-{kind}",
                    lambda d=dataset, k=kind: run_beta_sweep(
                        dataset=d, kind=k, epsilons=epsilons,
                        repeats=repeats, n=n, max_marginals=cap, jobs=jobs,
                    ),
                )
            )
            panels.append(
                (
                    f"fig10-{dataset}-{kind}",
                    lambda d=dataset, k=kind: run_theta_sweep(
                        dataset=d, kind=k, epsilons=epsilons,
                        repeats=repeats, n=n, max_marginals=cap, jobs=jobs,
                    ),
                )
            )
            panels.append(
                (
                    f"fig11-{dataset}-{kind}",
                    lambda d=dataset, k=kind: run_error_source(
                        dataset=d, kind=k, epsilons=epsilons,
                        repeats=repeats, n=n, max_marginals=cap, jobs=jobs,
                    ),
                )
            )
    for dataset, alphas in (
        ("nltcs", (3, 4)), ("acs", (3, 4)), ("adult", (2, 3)), ("br2000", (2, 3)),
    ):
        for alpha in alphas:
            panels.append(
                (
                    f"fig12-15-{dataset}-Q{alpha}",
                    lambda d=dataset, a=alpha: run_marginals_comparison(
                        dataset=d, alpha=a, epsilons=epsilons,
                        repeats=repeats, n=n, max_marginals=cap, jobs=jobs,
                    ),
                )
            )
    for dataset in ("nltcs", "acs", "adult", "br2000"):
        for task in range(4):
            panels.append(
                (
                    f"fig16-19-{dataset}-task{task}",
                    lambda d=dataset, t=task: run_svm_comparison(
                        dataset=d, task_index=t, epsilons=epsilons,
                        repeats=repeats, n=n, jobs=jobs,
                    ),
                )
            )
    return panels


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run_all",
        description="Run the full Section 6 experiment battery.",
    )
    parser.add_argument("--scale", choices=sorted(SCALES), default="fast")
    parser.add_argument("--out", default="results")
    parser.add_argument(
        "--only", default=None, help="substring filter on panel names"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per sweep panel (bit-identical to --jobs 1)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be a positive integer")
    scale = SCALES[args.scale]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    report_lines = [render_table5(run_table5(n=scale["n"])), ""]
    panels = battery(scale, jobs=args.jobs)
    if args.only:
        panels = [(name, fn) for name, fn in panels if args.only in name]
    print(f"running {len(panels)} panels at scale {args.scale!r}")
    for name, fn in panels:
        start = time.time()
        result = fn()
        elapsed = time.time() - start
        slug = name.replace("/", "_")
        (out_dir / f"{slug}.json").write_text(json.dumps(result.to_dict()))
        rendered = render_result(result)
        report_lines += [rendered, f"   ({elapsed:.1f}s)", ""]
        print(f"  {name:<28} done in {elapsed:6.1f}s")
    report = "\n".join(report_lines)
    (out_dir / "report.txt").write_text(report)
    print(f"report -> {out_dir / 'report.txt'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
