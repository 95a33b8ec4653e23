"""The sweep-execution engine: cells, seeds, executor, reduction."""

import numpy as np
import pytest

from repro.experiments.framework import stable_series_seed
from repro.experiments.parallel import (
    SweepCell,
    SweepExecutor,
    cell_seed,
    clear_worker_state,
    get_worker_state,
    mean_reduce,
    set_worker_state,
)


def _metric_cell(cell):
    """Top-level (picklable) toy worker: a pure function of the cell."""
    return float(cell.rng().random() + cell.epsilon)


def _state_cell(cell):
    """Top-level worker reading fork-inherited state."""
    return get_worker_state("test_parallel.offset") + cell.seed


class TestSweepCell:
    def test_param_lookup_and_default(self):
        cell = SweepCell("nltcs", 0.4, 1, 7, params=(("beta", 0.3),))
        assert cell.param("beta") == 0.3
        assert cell.param("theta") is None
        assert cell.param("theta", 4.0) == 4.0

    def test_rng_is_fresh_and_seed_determined(self):
        cell = SweepCell("nltcs", 0.4, 0, 99)
        first = cell.rng().random(3)
        second = cell.rng().random(3)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(
            first, np.random.default_rng(99).random(3)
        )

    def test_picklable(self):
        import pickle

        cell = SweepCell("acs", 0.1, 2, 5, series="Laplace", params=(("a", 1),))
        assert pickle.loads(pickle.dumps(cell)) == cell


class TestCellSeed:
    def test_pure_arithmetic_without_series(self):
        assert cell_seed(7000, 123) == 7123

    def test_series_offset_is_stable_series_seed(self):
        for name in ("Laplace", "Fourier", "Uniform", "MWEM"):
            assert cell_seed(10, 5, series=name) == 15 + stable_series_seed(
                name
            )

    def test_distinct_series_get_distinct_streams(self):
        assert cell_seed(0, 0, series="Laplace") != cell_seed(
            0, 0, series="Fourier"
        )


class TestSweepExecutor:
    def test_jobs_validated(self):
        with pytest.raises(ValueError):
            SweepExecutor(0)
        with pytest.raises(ValueError):
            SweepExecutor(-2)
        with pytest.raises(ValueError):
            SweepExecutor(1.5)

    def test_serial_map_preserves_order(self):
        cells = [SweepCell("d", 0.1 * i, 0, i) for i in range(6)]
        assert SweepExecutor(1).map(_metric_cell, cells) == [
            _metric_cell(c) for c in cells
        ]

    @pytest.mark.slow
    def test_pool_matches_serial(self):
        cells = [SweepCell("d", 0.1 * i, 0, 1000 + i) for i in range(9)]
        serial = SweepExecutor(1).map(_metric_cell, cells)
        pooled = SweepExecutor(2).map(_metric_cell, cells)
        assert serial == pooled

    @pytest.mark.slow
    def test_pool_is_order_stable_under_shuffled_submission(self):
        cells = [SweepCell("d", 0.1, 0, 50 + i) for i in range(8)]
        shuffled = [cells[i] for i in (3, 0, 7, 1, 6, 2, 5, 4)]
        pooled = SweepExecutor(3).map(_metric_cell, shuffled)
        # Results line up with the submitted cells, not completion order.
        assert pooled == [_metric_cell(c) for c in shuffled]

    @pytest.mark.slow
    def test_pool_inherits_worker_state(self):
        set_worker_state("test_parallel.offset", 1000)
        try:
            cells = [SweepCell("d", 0.1, 0, i) for i in range(5)]
            assert SweepExecutor(2).map(_state_cell, cells) == [
                1000 + i for i in range(5)
            ]
        finally:
            clear_worker_state("test_parallel.offset")

    def test_missing_worker_state_raises(self):
        with pytest.raises(RuntimeError, match="set_worker_state"):
            get_worker_state("test_parallel.never-set")

    def test_clear_worker_state_is_idempotent(self):
        set_worker_state("test_parallel.tmp", object())
        clear_worker_state("test_parallel.tmp")
        clear_worker_state("test_parallel.tmp")  # second clear is a no-op
        with pytest.raises(RuntimeError):
            get_worker_state("test_parallel.tmp")

    def test_harness_sweeps_leave_no_state_behind(self):
        # The figure harnesses must drop their contexts after the sweep so
        # run_all's dozens of panels don't accumulate in one process.
        from repro.experiments import (
            run_beta_sweep,
            run_encoding_svm,
            run_marginals_comparison,
        )
        from repro.experiments.parallel import _WORKER_STATE

        run_beta_sweep(
            dataset="nltcs", kind="count", betas=(0.3,), epsilons=(1.6,),
            repeats=1, n=300, max_marginals=3, seed=0,
        )
        run_marginals_comparison(
            dataset="nltcs", alpha=2, epsilons=(1.6,), repeats=1, n=300,
            max_marginals=3, include_full_domain_baselines=False, seed=0,
        )
        run_encoding_svm(
            dataset="br2000", epsilons=(1.6,), repeats=1, n=300, seed=0
        )
        assert _WORKER_STATE == {}

    def test_single_cell_runs_in_process(self):
        # len(cells) <= 1 short-circuits the pool entirely.
        cells = [SweepCell("d", 0.2, 0, 3)]
        assert SweepExecutor(8).map(_metric_cell, cells) == [
            _metric_cell(cells[0])
        ]


class TestMeanReduce:
    def test_groups_in_submission_order(self):
        assert mean_reduce([1.0, 3.0, 10.0, 20.0], 2) == [2.0, 15.0]

    def test_repeats_of_one(self):
        assert mean_reduce([1.5, 2.5], 1) == [1.5, 2.5]

    def test_mismatched_length_raises(self):
        with pytest.raises(ValueError, match="groups of 3"):
            mean_reduce([1.0, 2.0], 3)

    def test_nonpositive_repeats_raises(self):
        with pytest.raises(ValueError, match="positive"):
            mean_reduce([], 0)

    def test_empty_series_raises_cleanly(self):
        # Zero metrics with positive repeats → no grid points, empty list.
        assert mean_reduce([], 2) == []
