"""Sweep-execution benchmark: serial vs process-pool on an NLTCS fig9 slice.

Times one Figure 9 panel slice end to end (context build, releases,
metric evaluation) through :class:`repro.experiments.parallel.
SweepExecutor` at ``jobs=1`` and ``jobs=4``, asserting the two runs are
bit-identical before comparing clocks.  Emits ``BENCH_sweep.json`` under
``.bench_build/benchmarks/``:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_sweep.py -q

The pool only wins when the machine has cores to fan out over, so the
speedup floor is asserted only when at least ``JOBS`` CPUs are usable;
the JSON always records the measured ratio and the CPU count it was
measured under (single-core boxes time-slice the workers and land near —
or below — 1x).
"""

import json
import os
import time

from repro.experiments import run_beta_sweep
from repro.experiments.fig9_beta import BETAS

from conftest import BENCH_EPSILONS, BENCH_N, report, record_path

RESULTS_JSON = record_path("BENCH_sweep.json")

#: Worker count for the pooled run (the acceptance configuration).
JOBS = 4

#: Speedup floor asserted when the machine actually has >= JOBS CPUs.
MIN_SPEEDUP = 2.0

#: The timed Figure 9 slice: the paper's full β grid at the shared
#: benchmark scale, with the repeat count raised so the panel has enough
#: cells (8 β × 3 ε × 4 = 96) for the pool's per-task dispatch cost to
#: amortize.  Scaling by cells (not n) keeps each cell in the cheap
#: small-parent-set regime the engine caches were built for.
SLICE = dict(
    dataset="nltcs",
    kind="count",
    epsilons=BENCH_EPSILONS,
    repeats=4,
    n=BENCH_N,
    max_marginals=10,
    seed=0,
)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_sweep_benchmark():
    # Untimed warm-up of both code paths (dataset parse, allocator, ufunc
    # dispatch, fork machinery).  Two cells so the pooled warm-up really
    # forks (a single cell short-circuits to the serial path).  Each timed
    # run still pays its own pool spin-up — panels create one pool per
    # map call, so that cost is part of what the benchmark measures.
    warm = dict(SLICE, betas=(0.3,), epsilons=(1.6,), repeats=2, n=500)
    run_beta_sweep(jobs=1, **warm)
    run_beta_sweep(jobs=JOBS, **warm)

    start = time.perf_counter()
    serial = run_beta_sweep(jobs=1, **SLICE)
    seconds_serial = time.perf_counter() - start

    start = time.perf_counter()
    pooled = run_beta_sweep(jobs=JOBS, **SLICE)
    seconds_pooled = time.perf_counter() - start

    # The pool must be a pure scheduling change: bit-identical series.
    assert serial.to_dict() == pooled.to_dict()

    cpus = _usable_cpus()
    cells = len(BETAS) * len(SLICE["epsilons"]) * SLICE["repeats"]
    speedup = round(seconds_serial / max(seconds_pooled, 1e-9), 2)
    row = {
        "label": f"nltcs-fig9-jobs{JOBS}",
        "dataset": SLICE["dataset"],
        "kind": SLICE["kind"],
        "n": SLICE["n"],
        "cells": cells,
        "jobs": JOBS,
        "cpu_count": cpus,
        "seconds_serial": round(seconds_serial, 4),
        "seconds_pooled": round(seconds_pooled, 4),
        "speedup": speedup,
        "bit_identical": True,
        "speedup_asserted": cpus >= JOBS,
    }
    # Assert the acceptance floor BEFORE persisting: a failing run must not
    # overwrite the committed JSON/transcript with sub-floor numbers.
    if cpus >= JOBS:
        assert speedup >= MIN_SPEEDUP, (
            f"fig9 NLTCS slice at jobs={JOBS} on {cpus} CPUs is only "
            f"{speedup:.2f}x faster than serial (need >= {MIN_SPEEDUP}x)"
        )
    RESULTS_JSON.write_text(
        json.dumps(
            {"benchmark": "sweep-execution", "cpu_count": cpus, "grid": [row]},
            indent=2,
        )
        + "\n"
    )
    report(
        "sweep execution: serial vs process-pool (fig9 NLTCS slice)\n"
        f"  {row['label']:<18} cells={cells:>3} cpus={cpus} "
        f"serial {seconds_serial:.2f}s -> jobs={JOBS} {seconds_pooled:.2f}s "
        f"speedup={speedup:.2f}x (bit-identical)"
    )
