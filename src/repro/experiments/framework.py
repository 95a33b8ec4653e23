"""Shared experiment machinery: result container, rendering, helpers.

The paper plots every experiment over the privacy-budget grid
ε ∈ {0.05, 0.1, 0.2, 0.4, 0.8, 1.6} with 100 repetitions per point.  The
harnesses default to that grid but accept smaller grids / repeat counts /
dataset sizes so the whole battery runs on one machine.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: The paper's privacy-budget grid (Section 6).
EPSILONS = (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)

#: A reduced grid for quick runs and benchmarks.
FAST_EPSILONS = (0.1, 0.4, 1.6)


def stable_series_seed(name: str) -> int:
    """Small process-stable seed offset derived from a series/method name.

    Experiments that seed one RNG stream per named baseline must not use
    the built-in ``hash()``: string hashing is salted by ``PYTHONHASHSEED``,
    so the derived seeds — and every noise draw behind the series — change
    from process to process, silently dirtying benchmark-transcript diffs.
    CRC32 is fixed by specification, so the same name yields the same seed
    in every interpreter.
    """
    return zlib.crc32(name.encode("utf-8")) % 1000


#: Keys a serialized :class:`ExperimentResult` must carry.
_RESULT_KEYS = ("experiment", "title", "x_label", "y_label", "x", "series")


@dataclass
class ExperimentResult:
    """Series data mirroring one figure panel.

    ``series`` maps a method/line name to one metric value per ``x`` entry.
    """

    experiment: str
    title: str
    x_label: str
    y_label: str
    x: List
    series: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, name: str, values: Sequence[float]) -> None:
        values = list(float(v) for v in values)
        if len(values) != len(self.x):
            raise ValueError(
                f"series {name!r} has {len(values)} values for {len(self.x)} x points"
            )
        self.series[name] = values

    def to_dict(self) -> dict:
        """JSON-compatible form (for saving experiment outputs)."""
        return {
            "experiment": self.experiment,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "x": list(self.x),
            "series": {name: list(vals) for name, vals in self.series.items()},
        }

    @staticmethod
    def from_dict(data: dict) -> "ExperimentResult":
        missing = [key for key in _RESULT_KEYS if key not in data]
        if missing:
            raise ValueError(
                f"ExperimentResult.from_dict: missing keys {missing} "
                f"(got {sorted(data)})"
            )
        result = ExperimentResult(
            experiment=data["experiment"],
            title=data["title"],
            x_label=data["x_label"],
            y_label=data["y_label"],
            x=list(data["x"]),
        )
        for name, values in data["series"].items():
            result.add(name, values)
        return result


def render_result(result: ExperimentResult, width: int = 12) -> str:
    """Plain-text rendering: one row per method, one column per x value."""
    header = [result.x_label.ljust(18)] + [
        f"{x:>{width}}" if not isinstance(x, str) else x.rjust(width)
        for x in result.x
    ]
    lines = [
        f"== {result.experiment}: {result.title} ==",
        f"   metric: {result.y_label}",
        "".join(header),
    ]
    for name, values in result.series.items():
        row = [name.ljust(18)] + [f"{v:>{width}.4f}" for v in values]
        lines.append("".join(row))
    return "\n".join(lines)


def subsample_workload(
    workload: Sequence[Tuple[str, ...]],
    limit: Optional[int],
    seed: int = 0,
) -> List[Tuple[str, ...]]:
    """Deterministically cap a workload at ``limit`` marginals.

    The paper evaluates every marginal in ``Q_α``; capping keeps scaled
    runs tractable while remaining an unbiased sample of the workload.
    """
    workload = list(workload)
    if limit is None or len(workload) <= limit:
        return workload
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(workload), size=limit, replace=False)
    return [workload[i] for i in sorted(chosen)]


def mean_over_repeats(values: Sequence[float]) -> float:
    """Mean of one grid point's repeat metrics.

    An empty series means a sweep produced no metric for a grid point —
    a harness bug (or ``repeats=0``); ``np.mean`` would return ``nan``
    under a ``RuntimeWarning`` and silently poison every downstream plot,
    so fail loudly instead.
    """
    values = list(values)
    if not values:
        raise ValueError(
            "mean_over_repeats: empty series (no metric values to average)"
        )
    return float(np.mean(values))
