"""The benchmark's own arithmetic: self time, tails, queue waits."""

import pytest

from perfbench import layers, stats
from perfbench.tracing import Span, Tracer, self_times, union_length


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert union_length([(1.0, 4.0), (2.0, 3.0)]) == 3.0


def test_self_time_subtracts_union_of_nested_and_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0, op=0),
        Span("a", 1.0, 4.0, parent=0, op=0),
        Span("b", 3.0, 6.0, parent=0, op=0),  # overlaps a
        Span("c", 2.0, 3.0, parent=1, op=0),  # nested in a, not root's child
        Span("d", 9.0, 12.0, parent=0, op=0),  # runs past its parent's end
    ]
    # root: 10 - |[1,6] u [9,10]| = 10 - 6; a: 3 - 1; d has no children.
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_tracer_nests_per_thread_and_keeps_detached_spans_out_of_the_stack():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    root = tracer.begin("op", root=True)
    request = tracer.begin("request", detached=True)
    child = tracer.begin("child")
    tracer.end(child)
    tracer.end(request)
    tracer.end(root)
    second = tracer.begin("op", root=True)
    tracer.end(second)
    spans = tracer.spans
    assert spans[child].parent == root and spans[child].op == spans[root].op
    assert spans[request].parent is None and spans[request].op is None
    assert spans[second].op == spans[root].op + 1
    assert self_times(spans)[root] == spans[root].duration - spans[child].duration


def test_tail_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(1000, 0.99) == 10
    assert stats.samples_beyond(999, 0.99) == 9
    assert stats.tail([float(v) for v in range(999)], 0.99) is None
    assert stats.tail([float(v) for v in range(1000)], 0.99) == pytest.approx(989.01)
    assert layers._tail_ms([]) == (0.0, 0)
    with pytest.raises(ValueError, match="too few"):
        layers._tail_ms([0.001] * 50)


def test_serve_p99_is_reported_only_with_ten_samples_beyond():
    fits = [0.03]
    with pytest.raises(ValueError, match="too few"):
        layers.latency_metrics([0.001] * 999, fits)
    metrics = layers.latency_metrics([0.001] * 999 + [0.002], fits)
    assert metrics["serve.sample_p99_ms"][1] == 1000
    # Without fits the workload is not serve: no tail is reported at all.
    assert set(layers.latency_metrics([0.5, 0.7])) == {"op_p50_ms"}


def test_queue_wait_assigns_requests_to_draws_in_order():
    spans = [
        Span(layers.REQUEST, 0.0, 9.0),
        Span(layers.REQUEST, 1.0, 9.0),
        Span(layers.REQUEST, 2.0, 9.0),
        Span(layers.DRAW, 5.0, 6.0, op=0),
        Span(layers.DRAW, 7.0, 8.0, op=1),
    ]
    assert layers.queue_waits(spans, [2, 1]) == [5.0, 4.0, 5.0]
    with pytest.raises(ValueError, match="do not match"):
        layers.queue_waits(spans, [1, 1])


def test_layer_metrics_reports_every_metric_and_zero_for_bypassed_layers():
    spans = [
        Span(layers.OP_FIT_SAMPLE, 0.0, 4.0, op=0),
        Span("core.greedy_bayes", 0.0, 3.0, parent=0, op=0),
        Span("core.score_kernels.F", 1.0, 2.0, parent=1, op=0,
             counts={"candidates": 100}),
    ]
    metrics = layers.layer_metrics(spans, overhead_ratio=1.02)
    assert list(metrics) == [name for name, _, _ in layers.METRICS]
    assert metrics["core.greedy_bayes.s"] == (3.0, 1)
    assert metrics["core.greedy_bayes.self_s"] == (2.0, 1)
    assert metrics["core.score_kernels.F_candidates_per_s"] == (100.0, 1)
    assert metrics["core.greedy_bayes.share"][0] == pytest.approx(0.5)
    assert metrics["data.io.read_s"] == (0.0, 0)
    assert metrics["core.sampler.invert_rows"] == (0.0, 0)
    assert metrics["trace.overhead_ratio"] == (1.02, 1)
