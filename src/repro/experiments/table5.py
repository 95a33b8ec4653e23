"""Table 5: dataset characteristics, plus the million-row scale panel.

:func:`run_table5` regenerates the paper's dataset-characteristics table
from the schema-faithful generators.  :func:`run_scale_panel` extends it
past paper scale: it drives the streaming data plane end to end — chunked
synthetic ingestion, out-of-core fit, chunked sampling into a streaming
CSV release, and two-pass re-ingestion of that release — at increasing
``n``, recording wall-clock and peak *traced* memory per phase
(``tracemalloc``, which numpy's allocator reports into; the process-wide
``ru_maxrss`` high-water mark is recorded as context but never asserted
on, since it cannot shrink between phases).  The panel is the evidence
behind the scale benchmark's sublinear-memory assertion
(``benchmarks/test_bench_scale.py``).
"""

from __future__ import annotations

import math
import resource
import time
import tracemalloc
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from repro.datasets import LOADERS, TABLE5


def run_table5(n: Optional[int] = None, seed: int = 0) -> Dict[str, Dict]:
    """Regenerate Table 5 from the dataset generators.

    Returns per dataset the generated (cardinality, dimensionality,
    log2 domain size) alongside the paper's numbers.
    """
    rows = {}
    for name, loader in LOADERS.items():
        table = loader(n=n, seed=seed)
        paper_card, paper_dim, paper_log_dom = TABLE5[name]
        rows[name] = {
            "cardinality": table.n,
            "dimensionality": table.d,
            "log2_domain": round(math.log2(table.domain_size), 1),
            "paper_cardinality": paper_card,
            "paper_dimensionality": paper_dim,
            "paper_log2_domain": paper_log_dom,
        }
    return rows


#: Scale-panel defaults: two decades of n, a Figure-12-like shape.
SCALE_NS = (200_000, 1_000_000)
SCALE_D = 8
SCALE_K = 2


def _phase(label: str, rows: Dict, started: float) -> None:
    """Close one measured phase: record seconds + traced-peak bytes."""
    _, peak = tracemalloc.get_traced_memory()
    rows[f"seconds_{label}"] = round(time.perf_counter() - started, 3)
    rows[f"traced_peak_{label}"] = int(peak)
    tracemalloc.reset_peak()


def run_scale_panel(
    ns: Sequence[int] = SCALE_NS,
    d: int = SCALE_D,
    k: int = SCALE_K,
    epsilon: float = 1.0,
    chunk_rows: Optional[int] = None,
    seed: int = 0,
    output_dir: Optional[str] = None,
    ingest: bool = True,
) -> Dict[int, Dict]:
    """Fit + release + re-ingest at each ``n``, streaming end to end.

    Per grid point: a :class:`~repro.datasets.NetworkSource` emits ``n``
    rows of ``d`` correlated binary attributes in chunks; ``PrivBayes``
    fits on the source (one pass over it, which counts its full joint for
    the Walsh–Hadamard coefficients every greedy round reads); the release
    streams through ``sample_chunks`` → ``write_csv``; with ``ingest``,
    the released CSV is re-read through the two-pass
    :class:`~repro.data.io.CsvSource` and one streaming marginal proves
    the round trip.  Returns per-``n`` phase timings, per-phase traced
    memory peaks, and the released file size.  ``output_dir`` defaults to
    a temporary directory; the release files are deleted afterwards.
    """
    from tempfile import TemporaryDirectory

    from repro.core.privbayes import PrivBayes
    from repro.data.chunks import DEFAULT_CHUNK_ROWS
    from repro.data.io import CsvSource, write_csv
    from repro.data.marginals import marginal_counts
    from repro.datasets import random_binary_source

    chunk_rows = DEFAULT_CHUNK_ROWS if chunk_rows is None else int(chunk_rows)
    results: Dict[int, Dict] = {}
    with TemporaryDirectory() as scratch:
        directory = Path(output_dir) if output_dir is not None else Path(scratch)
        directory.mkdir(parents=True, exist_ok=True)
        for n in ns:
            path = directory / f"scale_release_{n}.csv"
            row: Dict = {
                "n": int(n),
                "d": int(d),
                "k": int(k),
                "chunk_rows": chunk_rows,
            }
            source = random_binary_source(
                n, d, seed=seed, chunk_rows=chunk_rows
            )
            tracemalloc.start()
            tracemalloc.reset_peak()
            started = time.perf_counter()
            model = PrivBayes(epsilon=epsilon, k=k, mode="binary").fit(
                source, np.random.default_rng(seed)
            )
            _phase("fit", row, started)
            started = time.perf_counter()
            write_csv(
                model.sample_chunks(
                    n, np.random.default_rng(seed + 1), chunk_rows=chunk_rows
                ),
                path,
            )
            _phase("release", row, started)
            if ingest:
                started = time.perf_counter()
                released = CsvSource(path, chunk_rows=chunk_rows)
                counted = marginal_counts(
                    released, [released.attribute_names[0]]
                )
                _phase("ingest", row, started)
                row["ingested_n"] = int(released.n)
                row["ingested_count_total"] = int(counted.sum())
            tracemalloc.stop()
            row["released_bytes"] = path.stat().st_size
            row["ru_maxrss_kb"] = int(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            )
            seconds = sum(
                value
                for key, value in row.items()
                if key.startswith("seconds_")
            )
            row["rows_per_second"] = (
                round(n / seconds, 1) if seconds > 0 else float("inf")
            )
            if output_dir is None:
                path.unlink()
            results[int(n)] = row
    return results


def render_scale_panel(rows: Dict[int, Dict]) -> str:
    lines = [
        "== table5-scale: streaming fit + release + ingest ==",
        f"{'n':>10}{'fit s':>9}{'release s':>11}{'ingest s':>10}"
        f"{'rows/s':>10}{'peak fit':>12}{'peak rel':>12}{'peak ing':>12}",
    ]
    for n in sorted(rows):
        row = rows[n]

        def mib(key: str) -> str:
            value = row.get(key)
            return "-" if value is None else f"{value / 2**20:.1f}M"

        lines.append(
            f"{n:>10}{row['seconds_fit']:>9}{row['seconds_release']:>11}"
            f"{row.get('seconds_ingest', '-'):>10}"
            f"{row['rows_per_second']:>10}"
            f"{mib('traced_peak_fit'):>12}{mib('traced_peak_release'):>12}"
            f"{mib('traced_peak_ingest'):>12}"
        )
    return "\n".join(lines)


def render_table5(rows: Dict[str, Dict]) -> str:
    lines = [
        "== table5: Dataset characteristics ==",
        f"{'dataset':<10}{'n':>10}{'d':>6}{'log2|dom|':>12}"
        f"{'paper n':>10}{'paper d':>9}{'paper log2':>12}",
    ]
    for name, row in rows.items():
        lines.append(
            f"{name:<10}{row['cardinality']:>10}{row['dimensionality']:>6}"
            f"{row['log2_domain']:>12}{row['paper_cardinality']:>10}"
            f"{row['paper_dimensionality']:>9}{row['paper_log2_domain']:>12}"
        )
    return "\n".join(lines)
