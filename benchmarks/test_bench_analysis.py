"""Analyzer benchmark: cold vs warm-cache vs parallel self-hosted runs.

Times the two-pass analyzer over the same tree CI gates on
(``src tests benchmarks examples``) three ways: cold (empty result
cache), warm (second run against the cache the cold run filled), and
serial against parallel (``jobs=2``), both with the cache off, as the
medians of ``PAIRS`` alternating runs so one stall on a shared machine
cannot decide the ratio.  Every finding set is asserted identical — as
dicts, order included — before any clock is compared, so every speedup
reported here is a pure scheduling/caching change.

Emits ``BENCH_analysis.json`` under ``.bench_build/benchmarks/``:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_analysis.py -q
"""

import json
import os
import statistics
import time
from pathlib import Path

from repro.analysis import ResultCache, analyze_paths

from conftest import report, record_path

RESULTS_JSON = record_path("BENCH_analysis.json")
REPO_ROOT = Path(__file__).resolve().parents[1]

#: The exact tree the CI `analysis` job sweeps.
GATE_PATHS = ("src", "tests", "benchmarks", "examples")

#: A warm cache skips parse + both rule tiers per unchanged file, paying
#: only discovery + sha256; that holds on any hardware, so the floor is
#: asserted unconditionally (conservatively, well under the observed ~10x).
MIN_WARM_SPEEDUP = 2.0

JOBS = 2

#: Alternating serial / jobs=2 runs behind the parallel speedup.
PAIRS = 3


def _timed(run):
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def test_analysis_benchmark(tmp_path):
    paths = [REPO_ROOT / p for p in GATE_PATHS]
    cache_file = tmp_path / "analysis_cache.json"

    cold_cache = ResultCache(cache_file)
    cold, seconds_cold = _timed(
        lambda: analyze_paths(paths, cache=cold_cache, root=REPO_ROOT)
    )
    cold_cache.save()

    warm_cache = ResultCache(cache_file)
    warm, seconds_warm = _timed(
        lambda: analyze_paths(paths, cache=warm_cache, root=REPO_ROOT)
    )

    serial_runs, parallel_runs = [], []
    for _ in range(PAIRS):
        serial_runs.append(
            _timed(lambda: analyze_paths(paths, cache=None, root=REPO_ROOT))
        )
        parallel_runs.append(
            _timed(
                lambda: analyze_paths(
                    paths, cache=None, root=REPO_ROOT, jobs=JOBS
                )
            )
        )

    # Parity before floors: caching and parallelism may not change one
    # finding, its order, or its tier.
    reference = [f.to_dict() for f in cold.findings]
    for run in [warm] + [run for run, _ in serial_runs + parallel_runs]:
        assert [f.to_dict() for f in run.findings] == reference
        assert run.files_scanned == cold.files_scanned

    # The warm run must be served from the cache, and the gate must hold.
    assert (cold.cache_hits, warm.cache_misses) == (0, 0)
    assert warm.cache_hits == warm.files_scanned
    assert cold.exit_code == 0

    seconds_serial = statistics.median(seconds for _, seconds in serial_runs)
    seconds_jobs = statistics.median(seconds for _, seconds in parallel_runs)
    warm_speedup = round(seconds_cold / max(seconds_warm, 1e-9), 2)
    jobs_speedup = round(seconds_serial / max(seconds_jobs, 1e-9), 2)
    cpus = os.cpu_count() or 1
    # Honest floor policy: warm-cache wins are hardware-independent and
    # asserted; a jobs=2 win needs a second core, so on a single-CPU
    # container the jobs timing is recorded but not asserted (process
    # startup + context pickling can legitimately make it slower).
    jobs_asserted = cpus >= 2
    row = {
        "label": "self-hosted-" + "-".join(GATE_PATHS),
        "paths": list(GATE_PATHS),
        "files_scanned": cold.files_scanned,
        "findings": len(reference),
        "open_findings": sum(1 for f in reference if f["status"] == "open"),
        "jobs": JOBS,
        "cpus": cpus,
        "seconds_cold": round(seconds_cold, 4),
        "seconds_warm": round(seconds_warm, 4),
        "jobs_pairs": PAIRS,
        "seconds_serial_median": round(seconds_serial, 4),
        "seconds_jobs_median": round(seconds_jobs, 4),
        "warm_speedup": warm_speedup,
        "jobs_speedup": jobs_speedup,
        "parity": True,
        "warm_speedup_asserted": True,
        "jobs_speedup_asserted": jobs_asserted,
    }
    # Assert floors BEFORE persisting: a failing run must not overwrite
    # the committed JSON/transcript with sub-floor numbers.
    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"warm-cache run is only {warm_speedup:.2f}x faster than cold "
        f"(need >= {MIN_WARM_SPEEDUP}x)"
    )
    if jobs_asserted:
        assert jobs_speedup >= 1.0, (
            f"median jobs={JOBS} run is {jobs_speedup:.2f}x the median "
            f"serial run on {cpus} CPUs "
            "(parallel pass 2 must not lose to serial when cores exist)"
        )
    RESULTS_JSON.write_text(
        json.dumps({"benchmark": "analysis-self-hosted", "grid": [row]}, indent=2)
        + "\n"
    )
    report(
        "analysis: cold vs warm-cache vs parallel self-hosted run\n"
        f"  {row['label']:<40} files={cold.files_scanned:>4} "
        f"cold {seconds_cold:.3f}s -> warm {seconds_warm:.3f}s "
        f"({warm_speedup:.2f}x) | median of {PAIRS}: serial "
        f"{seconds_serial:.3f}s -> jobs={JOBS} {seconds_jobs:.3f}s "
        f"({jobs_speedup:.2f}x on {cpus} cpu{'s' if cpus != 1 else ''}, "
        f"{'asserted' if jobs_asserted else 'recorded only'})"
    )
