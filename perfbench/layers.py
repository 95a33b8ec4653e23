"""Which program functions the traced run wraps, and the per-layer
metrics derived from their spans.

Layer names follow the program's modules (``repro.<layer>``).  Every
workload reports every metric: a layer a workload bypasses reads 0, which
is how the trace confirms the bypass.
"""

from __future__ import annotations

import importlib
import statistics
import weakref
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import stats
from perfbench.tracing import Patches, Span, Tracer, self_times

#: Span names the metrics look up: the benchmark's own op roots, a coalesced
#: draw (a wrapped call that opens an op) and a sample request.
OP_RELEASE = "op.release"
OP_FIT_SAMPLE = "op.fit_sample"
OP_FIT = "op.fit"
DRAW = "serve.coalescer.draw"
REQUEST = "serve.coalescer.request"

#: (name, unit, better) of the per-layer metrics besides the shares.
PER_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("data.io.read_s", "s", "lower"),
    ("data.io.schema_pass_s", "s", "lower"),
    ("data.io.read_cells_per_s", "1/s", "higher"),
    ("data.io.write_s", "s", "lower"),
    ("data.io.write_cells_per_s", "1/s", "higher"),
    ("core.greedy_bayes.s", "s", "lower"),
    ("core.greedy_bayes.self_s", "s", "lower"),
    ("core.greedy_bayes.candidates", "count", "lower"),
    ("core.scoring.score_batch_s", "s", "lower"),
    ("core.scoring.self_s", "s", "lower"),
    ("core.scoring.fresh_ratio", "ratio", "lower"),
    ("data.marginals.count_s", "s", "lower"),
    ("data.marginals.count_calls", "count", "lower"),
    ("bn.quality.parent_flat_s", "s", "lower"),
    ("bn.quality.parent_flat_mb", "MB", "lower"),
    ("bn.quality.parent_flat_entries", "count", "lower"),
    ("core.score_kernels.F_s", "s", "lower"),
    ("core.score_kernels.F_candidates_per_s", "1/s", "higher"),
    ("core.score_kernels.R_s", "s", "lower"),
    ("core.score_kernels.R_candidates_per_s", "1/s", "higher"),
    ("core.parent_sets.s", "s", "lower"),
    ("core.parent_sets.calls", "count", "lower"),
    ("dp.mechanisms.exponential_s", "s", "lower"),
    ("dp.mechanisms.laplace_s", "s", "lower"),
    ("core.noisy_conditionals.s", "s", "lower"),
    ("core.noisy_conditionals.self_s", "s", "lower"),
    ("core.sampler.sample_s", "s", "lower"),
    ("core.sampler.rows_per_s", "1/s", "higher"),
    ("core.sampler.invert_s", "s", "lower"),
    ("core.sampler.invert_rows", "count", "lower"),
    ("serve.coalescer.queue_wait_p50_ms", "ms", "lower"),
    ("serve.coalescer.queue_wait_p99_ms", "ms", "lower"),
    ("serve.coalescer.draw_p50_ms", "ms", "lower"),
    ("serve.coalescer.requests_per_draw", "ratio", "higher"),
    ("serve.ledger.persist_ms", "ms", "lower"),
    ("serve.ledger.persist_bytes", "bytes", "lower"),
    ("serve.registry.put_ms", "ms", "lower"),
    ("serve.registry.persist_bytes", "bytes", "lower"),
    ("serve.sample_p99_ms", "ms", "lower"),
    ("serve.fit_req_p50_ms", "ms", "lower"),
    ("serve.fit_late_ms", "ms", "lower"),
)

#: A metric value with the number of samples it summarizes.
Value = Tuple[float, int]


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _cells_of_result(args, kwargs, table):
    return {"cells": table.n * table.d}


def _cells_of_source(args, kwargs, result):
    source = args[0] if args else kwargs["source"]
    return {"cells": source.n * source.d}


def _submitted(args, kwargs, result):
    return {"submitted": len(args[1])}


def _F_candidates(args, kwargs, result):
    return {"candidates": len(result)}


def _segment_candidates(args, kwargs, result):
    return {"candidates": len(args[1])}


def _rows_requested(args, kwargs, result):
    return {"rows": int(args[2])}


def _rows_inverted(args, kwargs, result):
    return {"rows": int(args[1].shape[0])}


def _draw_counts(args, kwargs, result):
    return {"rows": sum(int(c) for c in args[2]), "requests": len(args[2])}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(args[1].encode("utf-8"))}


class _FlatBuilds:
    """Counts the flattened parent indexes a ``ParentIndexCache`` builds:
    a ``(cache, parents)`` key seen for the first time is a build."""

    def __init__(self) -> None:
        self._seen = weakref.WeakKeyDictionary()

    def __call__(self, args, kwargs, result):
        cache, parents = args[0], args[1]
        seen = self._seen.setdefault(cache, set())
        if parents in seen:
            return {"built": 0, "bytes": 0}
        seen.add(parents)
        return {"built": 1, "bytes": int(result[0].nbytes)}


#: What the traced run wraps: (kind, module, attribute, span name, layer,
#: counter, opens an op).  ``function`` wraps every program binding of a
#: function, ``attribute`` one module's binding only (the function as that
#: module calls it), ``method`` a class attribute.  A counter that is a
#: class is instantiated per install, because it keeps state.  Request spans
#: interleave on the event loop, so they belong to no layer's self time.
TARGETS = (
    ("function", "repro.data.io", "read_csv", "data.io.read_csv", "data.io", _cells_of_result, False),
    ("method", "repro.data.io", "CsvSource.__init__", "data.io.schema_pass", "data.io", None, False),
    ("function", "repro.data.io", "write_csv", "data.io.write_csv", "data.io", _cells_of_source, False),
    ("function", "repro.core.greedy_bayes", "greedy_bayes_fixed_k", "core.greedy_bayes", "core.greedy_bayes", None, False),
    ("function", "repro.core.greedy_bayes", "greedy_bayes_theta", "core.greedy_bayes", "core.greedy_bayes", None, False),
    ("method", "repro.core.scoring", "CandidateScorer.score_batch", "core.scoring.score_batch", "core.scoring", _submitted, False),
    ("function", "repro.data.marginals", "stacked_joint_counts", "data.marginals.count", "data.marginals", None, False),
    ("method", "repro.bn.quality", "ParentIndexCache.flat", "bn.quality.flat", "bn.quality", _FlatBuilds, False),
    ("function", "repro.core.score_kernels", "score_F_batch", "core.score_kernels.F", "core.score_kernels", _F_candidates, False),
    ("function", "repro.core.score_kernels", "score_R_segments", "core.score_kernels.R", "core.score_kernels", _segment_candidates, False),
    ("function", "repro.core.score_kernels", "score_I_segments", "core.score_kernels.I", "core.score_kernels", _segment_candidates, False),
    ("function", "repro.core.parent_sets", "maximal_parent_sets", "core.parent_sets", "core.parent_sets", None, False),
    ("function", "repro.core.parent_sets", "maximal_parent_sets_generalized", "core.parent_sets", "core.parent_sets", None, False),
    ("function", "repro.dp.mechanisms", "exponential_mechanism", "dp.mechanisms.exponential", "dp.mechanisms", None, False),
    ("function", "repro.dp.mechanisms", "laplace_mechanism", "dp.mechanisms.laplace", "dp.mechanisms", None, False),
    ("function", "repro.core.noisy_conditionals", "noisy_conditionals_fixed_k", "core.noisy_conditionals", "core.noisy_conditionals", None, False),
    ("function", "repro.core.noisy_conditionals", "noisy_conditionals_general", "core.noisy_conditionals", "core.noisy_conditionals", None, False),
    ("function", "repro.core.sampler", "sample_synthetic", "core.sampler.sample", "core.sampler", _rows_requested, False),
    ("function", "repro.core.sampler", "invert_row_cdfs", "core.sampler.invert", "core.sampler", _rows_inverted, False),
    ("method", "repro.serve.coalescer", "CoalescingSampler.sample", REQUEST, None, None, False),
    ("attribute", "repro.serve.coalescer", "sample_synthetic_split", DRAW, "serve.coalescer", _draw_counts, True),
    ("attribute", "repro.serve.ledger", "atomic_write_text", "serve.ledger.persist", "serve.ledger", _text_bytes, False),
    ("method", "repro.serve.registry", "ModelRegistry.put", "serve.registry.put", "serve.registry", None, False),
    ("attribute", "repro.serve.registry", "atomic_write_text", "serve.registry.persist", "serve.registry", _text_bytes, False),
)

#: Layer of each wrapped span name; op roots and requests belong to none.
SPAN_LAYER = {name: layer for _, _, _, name, layer, _, _ in TARGETS if layer}
LAYERS = tuple(dict.fromkeys(SPAN_LAYER.values()))

#: (name, unit, better) of every per-layer metric, in report order.
METRICS = PER_LAYER_METRICS + tuple(
    (f"{layer}.share", "ratio", "lower") for layer in LAYERS
) + (("trace.overhead_ratio", "ratio", "lower"),)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer's public functions; the caller must ``restore()``."""
    # Import every target first: a module imported after some function is
    # wrapped would bind the wrapper, which restore() does not know about.
    for _, module, *_ in TARGETS:
        importlib.import_module(module)
    patches = Patches()
    try:
        for kind, module, attr, name, _, count, root in TARGETS:
            if isinstance(count, type):
                count = count()

            def make(function, name=name, count=count, root=root):
                return tracer.wrap(name, function, count, root)

            if kind == "method":
                cls, method = attr.split(".")
                patches.method(module, cls, method, make)
            else:
                getattr(patches, kind)(module, attr, make)
    except BaseException:
        patches.restore()
        raise
    return patches


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _median(values: Sequence[float]) -> Value:
    return (statistics.median(values), len(values)) if values else (0.0, 0)


def queue_waits(
    spans: Sequence[Span], batch_request_counts: Sequence[int]
) -> List[float]:
    """Seconds each sample request waited for its coalesced draw to start.

    The coalescer drains requests in arrival order into draws that its one
    worker runs in submission order, and ``batch_request_counts`` lists
    how many requests each draw served; so the i-th request (by call
    time) belongs to the draw that count prefix sums place it in.
    """
    requests = sorted(s.start for s in spans if s.name == REQUEST)
    draws = sorted(s.start for s in spans if s.name == DRAW)
    if len(draws) != len(batch_request_counts) or len(requests) != sum(
        batch_request_counts
    ):
        raise ValueError(
            f"{len(requests)} requests in {len(draws)} draw spans do not "
            f"match the coalescer's batch counts ({len(batch_request_counts)} "
            f"draws, {sum(batch_request_counts)} requests)"
        )
    waits = []
    position = 0
    for draw_start, served in zip(draws, batch_request_counts):
        for called in requests[position:position + served]:
            waits.append(draw_start - called)
        position += served
    return waits


def layer_metrics(
    spans: Sequence[Span],
    batch_request_counts: Sequence[int] = (),
    fit_lateness: Sequence[float] = (),
    overhead_ratio: float = 0.0,
    untraced: Optional[Dict[str, Value]] = None,
) -> Dict[str, Value]:
    """Every metric of :data:`METRICS` as ``name -> (value, samples)``.

    Per-layer times and counts are per-op sums, reported as the median
    over the ops in which the layer ran (0 when it never ran).  A layer's
    share is its total self time over the total op time.  ``fit_lateness``
    is how late serve-adult's fit schedule ran; ``untraced`` carries the
    serve latencies measured with tracing off.
    """
    selfs = self_times(spans)
    per_op: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    layer_self: Dict[str, float] = defaultdict(float)
    op_total = 0.0
    for span, own in zip(spans, selfs):
        if span.op is None:
            continue
        if span.parent is None:
            op_total += span.duration
        acc = per_op[span.op]
        acc[span.name + ":s"] += span.duration
        acc[span.name + ":self"] += own
        acc[span.name + ":calls"] += 1
        for key, value in span.counts.items():
            acc[f"{span.name}:{key}"] += value
        layer = SPAN_LAYER.get(span.name)
        if layer is not None:
            layer_self[layer] += own

    def each(names: Sequence[str], value) -> List[float]:
        """``value(acc)`` for every op in which any span of ``names`` ran."""
        return [
            value(acc)
            for acc in per_op.values()
            if any(acc.get(f"{name}:calls") for name in names)
        ]

    def total(acc, names: Sequence[str], key: str) -> float:
        return sum(acc.get(f"{name}:{key}", 0.0) for name in names)

    def timed(names, key="s", scale=1.0) -> Value:
        return _median(each(names, lambda acc: total(acc, names, key) * scale))

    def rate(names, count_key) -> Value:
        return _median(each(names, lambda acc: (
            total(acc, names, count_key) / total(acc, names, "s")
            if total(acc, names, "s") > 0 else 0.0
        )))

    read, write = ["data.io.read_csv"], ["data.io.write_csv"]
    greedy, scoring = ["core.greedy_bayes"], ["core.scoring.score_batch"]
    counting, flat = ["data.marginals.count"], ["bn.quality.flat"]
    kernel_F, kernel_R = ["core.score_kernels.F"], ["core.score_kernels.R"]
    kernels = kernel_F + kernel_R + ["core.score_kernels.I"]
    parent_sets = ["core.parent_sets"]
    noisy = ["core.noisy_conditionals"]
    sample, invert = ["core.sampler.sample"], ["core.sampler.invert"]

    metrics: Dict[str, Value] = {
        "data.io.read_s": timed(read),
        "data.io.schema_pass_s": timed(["data.io.schema_pass"]),
        "data.io.read_cells_per_s": rate(read, "cells"),
        "data.io.write_s": timed(write),
        "data.io.write_cells_per_s": rate(write, "cells"),
        "core.greedy_bayes.s": timed(greedy),
        "core.greedy_bayes.self_s": timed(greedy, "self"),
        "core.greedy_bayes.candidates": _median(
            each(greedy, lambda acc: total(acc, scoring, "submitted"))
        ),
        "core.scoring.score_batch_s": timed(scoring),
        "core.scoring.self_s": timed(scoring, "self"),
        "core.scoring.fresh_ratio": _median(each(scoring, lambda acc: (
            total(acc, kernels, "candidates") / total(acc, scoring, "submitted")
        ))),
        "data.marginals.count_s": timed(counting),
        "data.marginals.count_calls": timed(counting, "calls"),
        "bn.quality.parent_flat_s": timed(flat),
        "bn.quality.parent_flat_mb": timed(flat, "bytes", 1.0 / 2**20),
        "bn.quality.parent_flat_entries": timed(flat, "built"),
        "core.score_kernels.F_s": timed(kernel_F),
        "core.score_kernels.F_candidates_per_s": rate(kernel_F, "candidates"),
        "core.score_kernels.R_s": timed(kernel_R),
        "core.score_kernels.R_candidates_per_s": rate(kernel_R, "candidates"),
        "core.parent_sets.s": timed(parent_sets),
        "core.parent_sets.calls": timed(parent_sets, "calls"),
        "dp.mechanisms.exponential_s": timed(["dp.mechanisms.exponential"]),
        "dp.mechanisms.laplace_s": timed(["dp.mechanisms.laplace"]),
        "core.noisy_conditionals.s": timed(noisy),
        "core.noisy_conditionals.self_s": timed(noisy, "self"),
        "core.sampler.sample_s": timed(sample),
        "core.sampler.rows_per_s": rate(sample, "rows"),
        "core.sampler.invert_s": timed(invert),
        "core.sampler.invert_rows": timed(invert, "rows"),
        "serve.ledger.persist_ms": timed(["serve.ledger.persist"], scale=1e3),
        "serve.ledger.persist_bytes": timed(["serve.ledger.persist"], "bytes"),
        "serve.registry.put_ms": timed(["serve.registry.put"], scale=1e3),
        "serve.registry.persist_bytes": timed(["serve.registry.persist"], "bytes"),
    }

    waits = queue_waits(spans, batch_request_counts)
    draws = [s.duration for s in spans if s.name == DRAW]
    metrics.update({
        "serve.coalescer.queue_wait_p50_ms": _scaled(_median(waits), 1e3),
        "serve.coalescer.queue_wait_p99_ms": _tail_ms(waits),
        "serve.coalescer.draw_p50_ms": _scaled(_median(draws), 1e3),
        "serve.coalescer.requests_per_draw": (
            (sum(batch_request_counts) / len(batch_request_counts), len(draws))
            if batch_request_counts else (0.0, 0)
        ),
    })
    metrics["serve.fit_late_ms"] = _scaled(_median(fit_lateness), 1e3)
    untraced = untraced or {}
    for name in ("serve.sample_p99_ms", "serve.fit_req_p50_ms"):
        metrics[name] = untraced.get(name, (0.0, 0))
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (
            layer_self[layer] / op_total if op_total else 0.0, len(per_op)
        )
    metrics["trace.overhead_ratio"] = (overhead_ratio, 1)
    return {name: metrics[name] for name, _, _ in METRICS}


def latency_metrics(
    latencies: Sequence[float], fit_latencies: Sequence[float] = ()
) -> Dict[str, Value]:
    """Untraced op latency metrics: the median op, plus the serve tail and
    fit latency when the workload sent fits beside its samples."""
    metrics = {"op_p50_ms": _scaled(_median(latencies), 1e3)}
    if fit_latencies:
        metrics["serve.sample_p99_ms"] = _tail_ms(latencies)
        metrics["serve.fit_req_p50_ms"] = _scaled(_median(fit_latencies), 1e3)
    return metrics


def _scaled(value: Value, factor: float) -> Value:
    return value[0] * factor, value[1]


def _tail_ms(samples: Sequence[float], q: float = 0.99) -> Value:
    """The p99 in ms; 0 when the layer never ran.  A layer that ran too
    few times for a valid tail is a sizing error, not a measurement."""
    if not samples:
        return 0.0, 0
    value = stats.tail(samples, q)
    if value is None:
        raise ValueError(
            f"only {len(samples)} samples: too few for a p{round(q * 100)} "
            f"with {stats.MIN_BEYOND} beyond it"
        )
    return value * 1e3, len(samples)
