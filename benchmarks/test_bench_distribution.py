"""Distribution-learning + sampling micro-benchmark: engine vs seed path.

Times phases 2-3 of the PrivBayes pipeline in the shape the figure sweeps
use them — many fits over one table (the ε × repeat cells), then repeated
draws from one fitted model (the serving pattern) — comparing the batched
:class:`repro.core.noisy_conditionals.JointCounter` engine and the library
sampler against the seed behavior, written out here: per-pair data scans
(:class:`PerPairCounter`) and a sampler with a per-call ``np.cumsum``,
broadcast CDF inversion and the validating ``Table``.  Both paths consume
identical RNG sequences and must produce bit-identical conditionals and
synthetic tuples.

Emits ``BENCH_distribution.json`` under ``.bench_build/benchmarks/`` with
wall-clock timings per (dataset, d, n, k) grid point:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_distribution.py -q
"""

import json
import time

import numpy as np

from repro.core.greedy_bayes import greedy_bayes_fixed_k, greedy_bayes_theta
from repro.data.marginals import domain_size, flatten_index
from repro.data.table import Table
from repro.core.noisy_conditionals import (
    JointCounter,
    noisy_conditionals_fixed_k,
    noisy_conditionals_general,
)
from repro.core.sampler import sample_synthetic
from repro.datasets import load_dataset

from conftest import report, record_path

RESULTS_JSON = record_path("BENCH_distribution.json")

#: (label, dataset, n, k or None for θ-mode, score, seed)
GRID = (
    ("nltcs-d16-k2", "nltcs", 4000, 2, "F", 7),
    ("nltcs-d16-k3", "nltcs", 1500, 3, "F", 7),
    ("adult-theta", "adult", 2000, None, "R", 7),
)

#: Fits per grid point (mirrors a sweep's ε × repeat cells) and distinct
#: networks cycled through them (each sweep cell learns its own structure).
FITS = 9
NETWORKS = 3

#: Repeated draws from one fitted model (the serving pattern).
DRAWS = 24

#: Acceptance floor for the Figure 12 NLTCS configuration (d=16, k=2):
#: distribution learning + sampling end-to-end.  The phases measured here
#: run ~0.1s total, so single-core timer noise is large relative to the
#: signal: back-to-back runs on the 1-CPU CI container measure 2.8x-3.9x.
#: The floor sits below that noise band's bottom — a genuine loss of the
#: batched-counting / cached-CDF engine lands near 1x, far under it.
MIN_NLTCS_SPEEDUP = 2.5

#: Each timed phase runs this many times and its fastest pass is the one
#: compared: a phase is 5-60 ms, so one garbage-collection pause or
#: scheduler stall in a single pass must not decide the speedup.
REPEATS = 3


def _networks(table, k, score, seed):
    """Pre-learn the structures once; this benchmark times phases 2-3 only."""
    nets = []
    for i in range(NETWORKS):
        rng = np.random.default_rng(seed + i)
        if k is None:
            nets.append(
                greedy_bayes_theta(
                    table, 0.3, 0.7, 4.0, score=score, rng=rng,
                    first_attribute=table.attribute_names[0],
                )
            )
        else:
            nets.append(
                greedy_bayes_fixed_k(
                    table, k, 0.3, score=score, rng=rng,
                    first_attribute=table.attribute_names[0],
                )
            )
    return nets


class PerPairCounter:
    """The seed counting, as a ``counter=``: each AP pair scans the rows
    on its own (its generalized parent columns and child column, one
    mixed-radix index, one bincount); nothing is kept between pairs."""

    def __init__(self, table):
        self.table = table

    def warm(self, pairs):
        pass

    def counts(self, pair):
        columns, sizes = [], []
        for name, level in pair.parents:
            codes = self.table.column(name)
            if level:
                mapping = self.table.attribute(name).generalization_map(level)
                codes, size = mapping[codes], int(mapping.max()) + 1
            else:
                size = self.table.attribute(name).size
            columns.append(codes)
            sizes.append(size)
        columns.append(self.table.column(pair.child))
        sizes.append(self.table.attribute(pair.child).size)
        flat = flatten_index(columns, sizes, self.table.n)
        return np.bincount(flat, minlength=domain_size(sizes)), tuple(sizes)


def _learn_one(table, network, k, rng, **kwargs):
    if k is None:
        return noisy_conditionals_general(table, network, 0.7, rng, **kwargs)
    return noisy_conditionals_fixed_k(table, network, k, 0.7, rng, **kwargs)


def _time_learn(table, networks, k, seed, engine, fits=FITS):
    """``fits`` distribution-learning passes; the engine shares one counter."""
    counter = JointCounter(table) if engine else None
    models = []
    start = time.perf_counter()
    for r in range(fits):
        rng = np.random.default_rng(seed * 919 + r)
        network = networks[r % len(networks)]
        if engine:
            models.append(_learn_one(table, network, k, rng, counter=counter))
        else:
            models.append(
                _learn_one(table, network, k, rng, counter=PerPairCounter(table))
            )
    return models, time.perf_counter() - start


def _fastest(timed):
    """Call ``timed()``, which returns ``(result, seconds)``, REPEATS
    times; the first pass's result (every pass computes the same one) and
    the fewest seconds."""
    runs = [timed() for _ in range(REPEATS)]
    return runs[0][0], min(seconds for _, seconds in runs)


def _sample_seed(model, attributes, n, rng):
    """The pre-engine sampler, attribute by attribute in network order.

    Each draw recomputes every conditional's ``np.cumsum``, builds the
    mixed-radix parent rows, inverts with the ``(n, C)`` broadcast, and
    validates the result through the ``Table`` constructor.  Uniforms are
    drawn in the engine's order, so the tuples must be identical.
    """
    by_name = {a.name: a for a in attributes}
    sampled = {}
    for pair in model.network:
        conditional = model.conditional_for(pair.child)
        cdf = np.cumsum(conditional.matrix, axis=1)
        cdf[:, -1] = 1.0
        rows = np.zeros(n, dtype=np.int64)
        sizes = conditional.parent_sizes
        for (name, level), size in zip(pair.parents, sizes):
            codes = sampled[name]
            if level != 0:
                codes = by_name[name].generalization_map(level)[codes]
            rows = rows * size + codes
        uniforms = rng.random(n)
        sampled[pair.child] = (
            (uniforms[:, None] > cdf[rows]).sum(axis=1).astype(np.int64)
        )
    return Table(attributes, {a.name: sampled[a.name] for a in attributes})


def _time_sample(table, model, seed, engine, draws=DRAWS):
    """``draws`` repeated synthetic draws from one fitted model."""
    sample = sample_synthetic if engine else _sample_seed
    tables = []
    start = time.perf_counter()
    for r in range(draws):
        tables.append(
            sample(
                model, table.attributes, table.n,
                np.random.default_rng(seed * 131 + r),
            )
        )
    return tables, time.perf_counter() - start


def _assert_identical_models(naive_models, engine_models):
    for naive, engine in zip(naive_models, engine_models):
        for a, b in zip(naive.conditionals, engine.conditionals):
            assert a.child == b.child
            np.testing.assert_array_equal(a.matrix, b.matrix)


def _assert_identical_tables(naive_tables, engine_tables):
    for naive, engine in zip(naive_tables, engine_tables):
        for name in naive.attribute_names:
            np.testing.assert_array_equal(naive.column(name), engine.column(name))


def test_distribution_benchmark():
    rows = []
    for label, dataset, n, k, score, seed in GRID:
        table = load_dataset(dataset, n=n, seed=0)
        networks = _networks(table, k, score, seed)
        # Untimed warm-up of every code path (allocator, ufunc dispatch).
        warm, _ = _time_learn(table, networks, k, seed, False, fits=2)
        _time_sample(table, warm[0], seed, False, draws=2)
        _time_sample(table, warm[0], seed, True, draws=2)
        naive_models, naive_learn = _fastest(
            lambda: _time_learn(table, networks, k, seed, False)
        )
        engine_models, engine_learn = _fastest(
            lambda: _time_learn(table, networks, k, seed, True)
        )
        # The engine must be a pure optimization: bit-identical conditionals.
        _assert_identical_models(naive_models, engine_models)
        naive_tables, naive_sample = _fastest(
            lambda: _time_sample(table, naive_models[0], seed, False)
        )
        engine_tables, engine_sample = _fastest(
            lambda: _time_sample(table, engine_models[0], seed, True)
        )
        _assert_identical_tables(naive_tables, engine_tables)
        naive_total = naive_learn + naive_sample
        engine_total = engine_learn + engine_sample
        rows.append(
            {
                "label": label,
                "dataset": dataset,
                "d": table.d,
                "n": table.n,
                "k": k if k is not None else "theta",
                "fits": FITS,
                "draws": DRAWS,
                "seconds_naive_learn": round(naive_learn, 4),
                "seconds_engine_learn": round(engine_learn, 4),
                "seconds_naive_sample": round(naive_sample, 4),
                "seconds_engine_sample": round(engine_sample, 4),
                "speedup_learn": round(naive_learn / max(engine_learn, 1e-9), 2),
                "speedup_sample": round(
                    naive_sample / max(engine_sample, 1e-9), 2
                ),
                "speedup_total": round(naive_total / max(engine_total, 1e-9), 2),
            }
        )
    # Assert the acceptance floor BEFORE persisting: a failing run must not
    # overwrite the committed JSON/transcript with sub-floor numbers.
    nltcs = next(r for r in rows if r["label"] == "nltcs-d16-k2")
    assert nltcs["speedup_total"] >= MIN_NLTCS_SPEEDUP, (
        f"NLTCS d=16 k=2 distribution learning + sampling is only "
        f"{nltcs['speedup_total']:.2f}x faster than the seed path "
        f"(need >= {MIN_NLTCS_SPEEDUP}x)"
    )
    RESULTS_JSON.write_text(
        json.dumps({"benchmark": "distribution-learning", "grid": rows}, indent=2)
        + "\n"
    )
    lines = ["distribution learning + sampling: engine vs per-pair/per-call"]
    for row in rows:
        lines.append(
            f"  {row['label']:<14} d={row['d']:>2} n={row['n']:>5} "
            f"k={row['k']!s:<5} learn {row['seconds_naive_learn']:.2f}s"
            f"->{row['seconds_engine_learn']:.2f}s "
            f"sample {row['seconds_naive_sample']:.2f}s"
            f"->{row['seconds_engine_sample']:.2f}s "
            f"total speedup={row['speedup_total']:.2f}x"
        )
    report("\n".join(lines))
