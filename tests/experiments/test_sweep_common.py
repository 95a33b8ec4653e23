"""Shared sweep plumbing: contexts, release defaults, serial/pool parity."""

import numpy as np
import pytest

from repro.experiments import (
    run_beta_sweep,
    run_error_source,
    run_marginals_comparison,
    run_svm_comparison,
    run_theta_sweep,
)
from repro.experiments.parallel import (
    SweepCell,
    clear_worker_state,
    set_worker_state,
)
from repro.experiments.sweep_common import (
    SWEEP_CONTEXT_KEY,
    SWEEP_TASKS,
    SweepContext,
    private_release,
    release_cell,
)


class TestSweepContext:
    def test_count_context_has_workload(self):
        ctx = SweepContext("nltcs", "count", n=600, max_marginals=5, seed=0)
        assert len(ctx.workload) == 5
        assert ctx.is_binary

    def test_svm_context_has_test_split(self):
        ctx = SweepContext("adult", "svm", n=600, seed=0)
        assert not ctx.is_binary
        assert ctx.X_test.shape[0] == ctx.y_test.shape[0]
        assert ctx.X_test.shape[0] == pytest.approx(120, abs=2)  # 20% of 600

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            SweepContext("nltcs", "other", n=100)

    def test_all_four_datasets_configured(self):
        assert set(SWEEP_TASKS) == {"nltcs", "acs", "adult", "br2000"}

    def test_evaluate_count_metric_in_range(self, rng):
        ctx = SweepContext("nltcs", "count", n=800, max_marginals=5, seed=0)
        synthetic = private_release(
            ctx.fit_table, 1.0, 0.3, 4.0, ctx.is_binary, rng
        )
        metric = ctx.evaluate(synthetic)
        assert 0.0 <= metric <= 1.0

    def test_evaluate_svm_metric_in_range(self, rng):
        ctx = SweepContext("br2000", "svm", n=800, seed=0)
        synthetic = private_release(
            ctx.fit_table, 1.0, 0.3, 4.0, ctx.is_binary, rng
        )
        metric = ctx.evaluate(synthetic)
        assert 0.0 <= metric <= 1.0


class TestReleaseCell:
    @pytest.fixture(autouse=True)
    def _clean_context_state(self):
        # These tests drive release_cell by hand (install the context
        # without the run_sweep_cells wrapper); don't leave it pinned.
        yield
        clear_worker_state(SWEEP_CONTEXT_KEY)

    def test_matches_direct_release(self):
        """release_cell(cell) == private_release with the cell's knobs."""
        ctx = SweepContext("nltcs", "count", n=500, max_marginals=4, seed=0)
        set_worker_state(SWEEP_CONTEXT_KEY, ctx)
        cell = SweepCell(
            "nltcs", 0.8, 0, 1234, params=(("beta", 0.3), ("theta", 4.0))
        )
        via_cell = release_cell(cell)
        synthetic = private_release(
            ctx.fit_table, 0.8, 0.3, 4.0, ctx.is_binary,
            np.random.default_rng(1234), scoring_cache=ctx.scoring,
        )
        assert via_cell == ctx.evaluate(synthetic)

    def test_oracle_params_travel_in_cell(self):
        ctx = SweepContext("nltcs", "count", n=400, max_marginals=3, seed=0)
        set_worker_state(SWEEP_CONTEXT_KEY, ctx)
        cell = SweepCell(
            "nltcs", 0.5, 0, 77,
            params=(
                ("beta", 0.3), ("theta", 4.0),
                ("oracle_network", True), ("oracle_marginals", True),
            ),
        )
        metric = release_cell(cell)
        assert 0.0 <= metric <= 1.0


#: Tiny per-figure slices for the serial-vs-pool golden parity matrix.
_PARITY_SLICES = {
    "fig9": lambda jobs: run_beta_sweep(
        dataset="nltcs", kind="count", betas=(0.1, 0.5), epsilons=(0.2, 1.6),
        repeats=2, n=500, max_marginals=4, seed=0, jobs=jobs,
    ),
    "fig10": lambda jobs: run_theta_sweep(
        dataset="nltcs", kind="count", thetas=(1.0, 8.0), epsilons=(1.6,),
        repeats=2, n=500, max_marginals=4, seed=0, jobs=jobs,
    ),
    "fig11": lambda jobs: run_error_source(
        dataset="nltcs", kind="count", epsilons=(1.6,), repeats=2, n=500,
        max_marginals=4, seed=0, jobs=jobs,
    ),
    "fig12-15": lambda jobs: run_marginals_comparison(
        dataset="nltcs", alpha=2, epsilons=(1.6,), repeats=2, n=500,
        max_marginals=4, mwem_rounds=3, seed=0, jobs=jobs,
    ),
    "fig16-19": lambda jobs: run_svm_comparison(
        dataset="nltcs", task_index=0, epsilons=(1.6,), repeats=2, n=500,
        privgene_iterations=3, seed=0, jobs=jobs,
    ),
}


@pytest.mark.slow
class TestSerialPoolParity:
    """jobs>1 must be bit-identical to jobs=1 for every wired figure."""

    def test_fig9_golden_parity_jobs4(self):
        """The headline check: a fig9 slice at jobs=1 vs jobs=4."""
        serial = _PARITY_SLICES["fig9"](1).to_dict()
        pooled = _PARITY_SLICES["fig9"](4).to_dict()
        assert serial == pooled

    @pytest.mark.parametrize(
        "figure", ["fig10", "fig11", "fig12-15", "fig16-19"]
    )
    def test_every_figure_bit_identical_at_jobs2(self, figure):
        serial = _PARITY_SLICES[figure](1).to_dict()
        pooled = _PARITY_SLICES[figure](2).to_dict()
        assert serial == pooled


class TestPrivateRelease:
    def test_binary_release_schema(self, rng):
        ctx = SweepContext("acs", "count", n=500, max_marginals=3, seed=0)
        synthetic = private_release(
            ctx.fit_table, 0.5, 0.3, 4.0, True, rng
        )
        assert synthetic.attribute_names == ctx.fit_table.attribute_names

    def test_oracle_switches_propagate(self, rng):
        ctx = SweepContext("nltcs", "count", n=500, max_marginals=3, seed=0)
        synthetic = private_release(
            ctx.fit_table, 0.5, 0.3, 4.0, True, rng,
            oracle_network=True, oracle_marginals=True,
        )
        assert synthetic.n == ctx.fit_table.n
