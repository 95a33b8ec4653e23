"""Benchmark configuration.

Each benchmark regenerates one paper table/figure at reduced scale
(smaller n, coarser ε grid, capped workloads) and prints the series it
computed, so `pytest benchmarks/ --benchmark-only` doubles as the
experiment battery.  Paper-scale runs go through
``python -m repro.experiments <figure>`` without ``--fast``.

Every record a run writes (the ``BENCH_*.json`` timings and the
``latest_results.txt`` transcript) goes under the gitignored
``.bench_build/benchmarks/`` at the repository root, through
:func:`record_path`, so a battery run leaves the tracked tree untouched.
"""

from pathlib import Path

import pytest

#: Reduced ε grid shared by all benchmarks.
BENCH_EPSILONS = (0.1, 0.4, 1.6)

#: Reduced dataset size shared by all benchmarks.
BENCH_N = 2000

#: The gitignored directory every benchmark record is written to.
RECORDS_DIR = Path(__file__).resolve().parents[1] / ".bench_build" / "benchmarks"


def record_path(name: str) -> Path:
    """Where the record ``name`` is written; the session creates
    :data:`RECORDS_DIR` before any benchmark runs."""
    return RECORDS_DIR / name


#: Rendered series from the current benchmark session (appended per test).
RESULTS_FILE = record_path("latest_results.txt")

#: True only when the session collected the entire benchmark battery.
#: Partial runs (a single module, -k filters) print their series but leave
#: the transcript alone, so reference numbers from the full battery are
#: never truncated by a one-off benchmark invocation.
_full_battery = False

#: The transcript is cleared once, on the first full-battery write.
_transcript_reset = False


def pytest_collection_finish(session):
    """Detect whether this session is about to run the whole battery,
    and make the records directory."""
    global _full_battery
    if session.config.getoption("collectonly", default=False):
        return
    RECORDS_DIR.mkdir(parents=True, exist_ok=True)
    here = Path(__file__).parent
    all_modules = {p.name for p in here.glob("test_bench_*.py")}
    collected = {
        Path(item.fspath).name
        for item in session.items
        if Path(item.fspath).parent == here
    }
    _full_battery = all_modules <= collected


def run_once(benchmark, fn, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)


def report(rendered: str) -> None:
    """Print a rendered result and append it to the session transcript.

    pytest captures stdout of passing tests; the transcript file keeps the
    series inspectable after `pytest benchmarks/ --benchmark-only`.  Only
    full-battery sessions write the transcript (see
    :func:`pytest_collection_finish`).
    """
    global _transcript_reset
    print()
    print(rendered)
    if not _full_battery:
        return
    if not _transcript_reset:
        # Reset lazily on the first write, not at collection time, so an
        # interrupted or collect-only session never wipes the transcript.
        try:
            RESULTS_FILE.unlink()
        except FileNotFoundError:
            pass
        _transcript_reset = True
    with RESULTS_FILE.open("a") as handle:
        handle.write(rendered + "\n\n")
