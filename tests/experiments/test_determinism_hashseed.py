"""Seeded determinism of the figure experiments, across hash randomization.

The fig 12-15 baselines once derived per-series RNG seeds from
``hash(baseline.name)``, which is salted by ``PYTHONHASHSEED``: the
Laplace/Fourier/MWEM rows of the benchmark transcript drifted from
process to process while the PrivBayes rows stayed bit-stable.  These tests
guard the fix at three levels: the seed derivation itself, a same-process
re-run, and — the loud one — two subprocesses pinned to *different*
``PYTHONHASHSEED`` values whose series must agree bit-for-bit.

The process-pool sweep engine (:mod:`repro.experiments.parallel`) adds a
fourth surface: per-cell seeds must be a pure function of (series name,
cell index) — independent of worker count, submission order and the hash
salt.  The subprocess payload therefore also carries a ``jobs=2`` fig9
slice and a grid of :func:`cell_seed` values.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import run_marginals_comparison
from repro.experiments.framework import stable_series_seed
from repro.experiments.parallel import SweepCell, SweepExecutor, cell_seed

_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Tiny configuration shared by the in-process and subprocess runs.
_TINY = dict(
    dataset="nltcs",
    alpha=2,
    epsilons=(0.8,),
    repeats=1,
    n=200,
    max_marginals=4,
    include_full_domain_baselines=False,
    seed=0,
)

_SUBPROCESS_SNIPPET = """
import hashlib
import json

import numpy as np

from repro.core.privbayes import PrivBayes
from repro.datasets import load_dataset
from repro.experiments import run_beta_sweep, run_marginals_comparison
from repro.experiments.parallel import cell_seed

result = run_marginals_comparison(**{tiny!r})
payload = dict(result.series)

fig9 = run_beta_sweep(
    dataset="nltcs", kind="count", betas=(0.1, 0.5), epsilons=(0.8,),
    repeats=1, n=200, max_marginals=3, seed=0, jobs=2,
)
payload["__fig9_jobs2__"] = fig9.series
payload["__cell_seeds__"] = [
    cell_seed(6271, idx, series=name)
    for name in ("Laplace", "Fourier", "MWEM", "")
    for idx in (0, 101, 202)
]

table = load_dataset("nltcs", n=300, seed=3)
synthetic = PrivBayes(
    epsilon=1.0, k=2, first_attribute=table.attribute_names[0]
).fit_sample(table, rng=np.random.default_rng(11))
digest = hashlib.sha256()
for name in synthetic.attribute_names:
    digest.update(name.encode())
    digest.update(np.ascontiguousarray(synthetic.column(name)).tobytes())
payload["__fit_sample_sha256__"] = digest.hexdigest()
print(json.dumps(payload, sort_keys=True))
"""


def test_stable_series_seed_is_fixed_by_specification():
    # CRC32 of the exact baseline names; constants independently computable.
    assert stable_series_seed("Laplace") == 52
    assert stable_series_seed("Fourier") == 223
    assert stable_series_seed("Uniform") == 459
    assert 0 <= stable_series_seed("anything at all") < 1000


def test_marginals_comparison_is_deterministic_in_process():
    first = run_marginals_comparison(**_TINY)
    second = run_marginals_comparison(**_TINY)
    assert first.series == second.series


def _seed_probe_cell(cell):
    """Top-level (picklable) probe: report the seed a worker observes."""
    return cell.seed


class TestCellSeedPurity:
    """Per-cell seeds are a pure function of (series name, cell index)."""

    def test_seed_grid_is_pure_arithmetic(self):
        # cell_seed must equal base + index + CRC32-offset for the whole
        # grid — no hash(), no process state, no worker identity.
        for base in (0, 7919, 6271 * 3):
            for series in ("", "Laplace", "Fourier", "PrivBayes", "MWEM"):
                offset = stable_series_seed(series) if series else 0
                for index in (0, 1, 101, 1009, 12345):
                    assert (
                        cell_seed(base, index, series=series)
                        == base + index + offset
                    )

    def test_known_constants_pin_the_derivation(self):
        # CRC32 is fixed by specification: these constants hold in every
        # interpreter and under every PYTHONHASHSEED.
        assert cell_seed(0, 0, series="Laplace") == 52
        assert cell_seed(0, 0, series="Fourier") == 223
        assert cell_seed(6271, 101, series="Uniform") == 6271 + 101 + 459

    @pytest.mark.slow
    def test_observed_seeds_independent_of_worker_count_and_order(self):
        cells = [
            SweepCell("nltcs", 0.1, r, cell_seed(7919, i * 101 + r), series=s)
            for i, s in enumerate(("Laplace", "Fourier", ""))
            for r in range(4)
        ]
        expected = [c.seed for c in cells]
        # Any worker count observes the same per-cell seed...
        for jobs in (1, 2, 4):
            assert SweepExecutor(jobs).map(_seed_probe_cell, cells) == expected
        # ...and submission order only permutes, never re-derives them.
        order = list(range(len(cells)))
        random.Random(5).shuffle(order)
        shuffled = [cells[i] for i in order]
        observed = SweepExecutor(2).map(_seed_probe_cell, shuffled)
        assert observed == [expected[i] for i in order]


@pytest.mark.slow
def test_marginals_comparison_identical_across_hashseeds():
    """Two processes with different PYTHONHASHSEED emit identical series.

    This is the regression the in-process test cannot see: ``hash()`` is
    stable within one interpreter, so only a fresh process with a different
    salt exposes a hash-derived seed.  Any experiment that reintroduces one
    fails here loudly instead of silently dirtying benchmark diffs.
    """
    snippet = _SUBPROCESS_SNIPPET.format(tiny=_TINY)
    outputs = []
    for hashseed in ("0", "424242"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = _SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", snippet],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    assert "PrivBayes" in outputs[0] and "Laplace" in outputs[0]
    # The pool path too: the jobs=2 fig9 slice and the cell-seed grid must
    # agree bit-for-bit across interpreters with different hash salts.
    assert "__fig9_jobs2__" in outputs[0]
    assert "__cell_seeds__" in outputs[0]
