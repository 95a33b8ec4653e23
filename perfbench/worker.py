"""One workload in its own process: set up, measure, optionally trace.

Started by ``perfbench/run.py`` as ``python -m perfbench.worker`` from the
repository root.  Prints one JSON object as its last line of output.
"""

import time

# setup_s counts from here, so it includes importing NumPy and the program.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def calibrate_ms() -> float:
    """A fixed pure-Python loop; its time shows how fast the machine runs now."""
    start = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value
    return (time.perf_counter() - start) * 1e3


def _measure(workload, args) -> dict:
    import numpy as np

    from perfbench import layers, workloads
    from perfbench.tracing import Tracer, installed_wrappers

    calibration = [calibrate_ms()]
    untraced = workload.measure(args.seconds)
    rss = workloads.peak_rss_mb()
    attempted, failures = untraced.attempted, list(untraced.failures)
    per_layer = {}
    if args.trace and not failures:
        tracer = Tracer()
        patches = layers.install(tracer)
        try:
            traced = workload.replay(len(untraced.latencies), tracer)
        finally:
            patches.restore()
        attempted += traced.attempted
        failures += traced.failures
        leaked = installed_wrappers()
        if leaked:
            failures.append(f"wrappers left installed: {leaked}")
        tracer.write_jsonl(Path(args.trace_out))
        if not failures:
            per_layer = layers.layer_metrics(
                tracer.spans,
                batch_request_counts=traced.extra.get("batch_request_counts", ()),
                fit_lateness=traced.extra.get("lateness", ()),
                overhead_ratio=statistics.median(traced.latencies)
                / statistics.median(untraced.latencies),
                untraced=layers.latency_metrics(
                    untraced.latencies, untraced.extra.get("fit_latencies", ())
                ),
            )
    # A run-level output check counts as one more op.
    try:
        check_failures = workload.check()
    except Exception as exc:  # a broken output is a failed check
        check_failures = [f"check: {type(exc).__name__}: {exc}"]
    if check_failures is not None:
        attempted += 1
        if check_failures:
            failures.append("; ".join(check_failures))
    calibration.append(calibrate_ms())
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "latencies": untraced.latencies,
        "fit_latencies": untraced.extra.get("fit_latencies", []),
        "peak_rss_mb": rss,
        "per_layer": {name: list(value) for name, value in per_layer.items()},
        "calibration_ms": calibration,
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from perfbench import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(
        args.workload, args.seed, args.part, workdir, args.seconds,
        2 if args.trace else 1,
    )
    try:
        workload.setup()
        result = {"setup_s": time.perf_counter() - _STARTED}
        if not args.setup_only:
            result.update(_measure(workload, args))
    finally:
        workload.close()
        workloads.cleanup(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
