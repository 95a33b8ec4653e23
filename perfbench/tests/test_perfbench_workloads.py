"""Seeded inputs and wrapper hygiene of the benchmark's workloads."""

import sys

import pytest

from perfbench import layers, workloads
from perfbench.tracing import Tracer, installed_wrappers


def test_same_seed_gives_same_requests_sizes_and_fit_seeds():
    first = workloads.serve_plan(5, 0, 3.0)
    assert first == workloads.serve_plan(5, 0, 3.0)
    assert first != workloads.serve_plan(6, 0, 3.0)
    assert first != workloads.serve_plan(5, 1, 3.0)
    assert len(first.sizes) == workloads.SERVE_CLIENTS
    assert len(set(first.sizes)) == workloads.SERVE_CLIENTS
    assert all(
        workloads.SERVE_MIN_ROWS <= rows <= workloads.SERVE_MAX_ROWS
        for sizes in first.sizes for rows in sizes
    )
    assert [at for at, _ in first.fits] == [0.5, 1.5, 2.5]
    assert len({seed for _, seed in first.fits}) == 3
    assert workloads.derive(5, workloads.OP, 2) == workloads.derive(5, workloads.OP, 2)
    assert workloads.derive(5, workloads.OP, 2) != workloads.derive(6, workloads.OP, 2)


def _bindings():
    """Identity of every attribute of every program module and class."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            found[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in list(vars(value).items()):
                    found[(name, key, attr)] = id(member)
    return found


@pytest.fixture
def small_fit(tmp_path):
    from repro.datasets import load_nltcs

    workload = workloads.FitNltcs(1, 0, tmp_path)
    workload.setup()
    workload.table = load_nltcs(n=4000, seed=1)  # k=2: every fit layer runs
    return workload


def test_untraced_run_installs_no_wrapper(small_fit):
    before = _bindings()
    phase = small_fit.measure(0.0)
    assert phase.failures == [] and len(phase.latencies) == 1
    assert installed_wrappers() == []
    after = _bindings()
    assert {key: after[key] for key in before} == before


def test_traced_run_restores_every_wrapper(small_fit):
    small_fit.measure(0.0)
    before = _bindings()
    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        wrapped = installed_wrappers()
        # Wrapped where callers look them up, not only where defined.
        assert "repro.core.privbayes.greedy_bayes_fixed_k" in wrapped
        assert "repro.core.scoring.score_F_batch" in wrapped
        assert "repro.core.noisy_conditionals.stacked_joint_counts" in wrapped
        assert "repro.core.scoring.CandidateScorer.score_batch" in wrapped
        phase = small_fit.replay(1, tracer)
    finally:
        patches.restore()
    assert phase.failures == []
    assert installed_wrappers() == []
    after = _bindings()
    assert {key: after[key] for key in before} == before
    names = {span.name for span in tracer.spans}
    assert {layers.OP_FIT_SAMPLE, "core.greedy_bayes", "core.scoring.score_batch",
            "data.marginals.count", "core.noisy_conditionals",
            "core.sampler.sample"} <= names
