"""Benchmark runner: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, from the repository root.

Each workload runs in worker processes of its own (``perfbench/worker.py``).
With ``--trace 0``, a few measuring workers each set up and run the
workload's ops for a share of ``--seconds`` with tracing off, and set-up-only
workers bring the set-ups to :data:`SETUPS` for a steady ``setup_s`` median.
With ``--trace 1``, one worker measures ``--seconds`` untraced, then replays
the same ops with every layer wrapped.  Before any worker starts, the native
kernel is resolved (and compiled if needed) so no compile lands in a timing.
``--workload all`` runs the three in turn.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  The exit code is nonzero when any
op or output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import this package, not sibling modules, whatever the working directory.
sys.path[0] = str(ROOT)

from perfbench import layers  # noqa: E402

WORKLOADS = ("release-adult", "fit-nltcs", "serve-adult")
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_p50_ms", "ms"))
#: Measuring workers per untraced run.  Each measures ``seconds / parts``
#: and their op samples are pooled: a VM can run the same loop at different
#: speeds in different processes, so one slow process moves a pooled median
#: less.  fit-nltcs gets fewer because its ops take about four seconds.
PARTS = {"release-adult": 4, "fit-nltcs": 3, "serve-adult": 4}
#: Set-ups per untraced run; the ones the measuring workers do not make are
#: made by set-up-only workers.  setup_s is their median.
SETUPS = 5
#: Everything, every worker included, ends within this many seconds per
#: workload.
DEADLINE_S = 170.0
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORK = ROOT / ".bench_build" / "perfbench"

PREPARE = (
    "import numpy, repro.__main__, repro.datasets, repro.serve\n"
    "from repro.core import kernel_backend\n"
    "print(kernel_backend.SELECTED_BACKEND)\n"
)


class BenchmarkError(RuntimeError):
    pass


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    for name in BLAS_THREADS:
        env[name] = "1"
    return env


def _run(command, env, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchmarkError("out of time before starting a worker")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker timed out: {' '.join(command)}") from None
    if done.returncode != 0:
        raise BenchmarkError(
            f"worker exited {done.returncode}: {' '.join(command)}\n{done.stderr}"
        )
    return done.stdout


def prepare(env: dict, deadline: float) -> str:
    """Resolve the kernel backend once (compiling the native kernel when
    needed, and warming bytecode caches) and pin it for every worker."""
    backend = _run([sys.executable, "-c", PREPARE], env, deadline).split()[-1]
    env["REPRO_KERNEL_BACKEND"] = backend
    return backend


def _worker(env, deadline, workload, seed, seconds, trace, part, setup_only=False):
    tag = f"{'setup' if setup_only else 'part'}{part}"
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", workload, "--seed", str(seed), "--part", str(part),
        "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", str(WORK / f"{workload}-{os.getpid()}-{tag}"),
        "--trace-out", str(WORK / f"trace-{workload}-seed{seed}.jsonl"),
    ] + (["--setup-only"] if setup_only else [])
    return json.loads(_run(command, env, deadline).strip().splitlines()[-1])


def run_workload(env, deadline, workload, seed, seconds, trace) -> dict:
    """Run one workload's workers and pool what they measured."""
    if trace:
        setups, parts = [], [_worker(env, deadline, workload, seed, seconds, 1, 0)]
    else:
        count = PARTS[workload]
        setups = [
            _worker(env, deadline, workload, seed, seconds, 0, part, True)["setup_s"]
            for part in range(SETUPS - count)
        ]
        parts = [
            _worker(env, deadline, workload, seed, seconds / count, 0, part)
            for part in range(count)
        ]
    setups += [part["setup_s"] for part in parts]
    failures = [failure for part in parts for failure in part["failures"]]
    failed = sum(part["failed"] for part in parts)
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (
            statistics.median(part["peak_rss_mb"] for part in parts), len(parts)
        ),
    }
    if not failures:
        try:
            metrics.update(layers.latency_metrics(
                [value for part in parts for value in part["latencies"]],
                [value for part in parts for value in part["fit_latencies"]],
            ))
        except ValueError as exc:  # too few samples for a valid tail
            failures.append(str(exc))
            failed += 1
    return {
        "attempted": sum(part["attempted"] for part in parts),
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "per_layer": parts[0]["per_layer"],
        "calibration_ms": [ms for part in parts for ms in part["calibration_ms"]],
        "numpy": parts[0]["numpy"],
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _line(name, value, unit, samples) -> str:
    return f"  {name:<42} {value:>16.6g} {unit:<6} (n={samples})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    env = _environment()
    try:
        backend = prepare(env, deadline)
        results = {
            name: run_workload(env, deadline, name, args.seed, args.seconds, args.trace)
            for name in names
        }
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = dict(END_TO_END) if not args.trace else {
        name: unit for name, unit, _ in layers.METRICS
    }
    meta = {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "backend": backend, "commit": commit(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "blas_threads": 1, "pythonhashseed": 0,
    }
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name, result in results.items():
        meta.update(numpy=result["numpy"], calibration_ms=result["calibration_ms"])
        print(f"perfbench {name} " + json.dumps(meta, sort_keys=True))
        for failure in result["failures"]:
            print(f"  FAILED: {failure}")
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["failed"] == 0
        measured = result["per_layer"] if args.trace else result["metrics"]
        for metric, unit in units.items():
            if metric not in measured:
                correct = False
                continue
            value, samples = measured[metric]
            print(_line(metric, value, unit, samples))
            key = metric if len(results) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        if not args.trace:
            for metric in ("serve.sample_p99_ms", "serve.fit_req_p50_ms"):
                if metric in measured:
                    value, samples = measured[metric]
                    print(_line(metric, value, "ms", samples) + "  [per-layer report]")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
