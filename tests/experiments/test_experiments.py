"""Experiment harnesses: tiny-scale runs of every figure + framework."""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments import (
    render_result,
    run_beta_sweep,
    run_encoding_marginals,
    run_encoding_svm,
    run_error_source,
    run_fig4,
    run_marginals_comparison,
    run_svm_comparison,
    run_table5,
    run_theta_sweep,
    subsample_workload,
)
from repro.bn.quality import network_mutual_information
from repro.core.greedy_bayes import greedy_bayes_fixed_k, greedy_bayes_theta
from repro.core.scoring import CandidateScorer
from repro.datasets import load_dataset
from repro.experiments.framework import ExperimentResult
from repro.experiments.table5 import render_table5

_TINY = dict(epsilons=(0.2, 1.6), repeats=1, n=800, seed=0)

#: ``run_fig4(dataset, epsilons=(0.1, 0.4, 1.6), repeats=2, n=3000,
#: seed=1).series`` as ``float.hex()`` strings, recorded before the metric
#: moved onto the ``I`` scorer.
_FIG4_GOLDEN = {
    "nltcs": {
        "I": ["0x1.0cd9ed65504b9p+0", "0x1.a8d650f4259eep+0", "0x1.a975b8b42b6b4p+1"],
        "R": ["0x1.24ac22b996d5ap+0", "0x1.a0500acf5f84fp+0", "0x1.c8bef61f365d0p+1"],
        "F": ["0x1.36cf0f1f2770dp+0", "0x1.1f482ca0917e1p+1", "0x1.d6980057b1ef2p+1"],
        "NoPrivacy": [
            "0x1.b4bbceec12b6bp+1", "0x1.b4bbceec12b6bp+1", "0x1.e6d35a84df6bep+1",
        ],
    },
    "br2000": {
        "I": ["0x0.0p+0", "0x1.51378024e6420p-6", "0x1.87ea6ab3a85ccp-3"],
        "R": ["0x0.0p+0", "0x1.51378024e6420p-6", "0x1.1a85243f4ea99p-1"],
        "NoPrivacy": ["0x0.0p+0", "0x1.57c162f983940p-5", "0x1.5360f850cc13ap-1"],
    },
    "adult": {
        "I": ["0x0.0p+0", "0x1.d4506ea8f2b00p-7", "0x1.262acf29ccefep-1"],
        "R": ["0x0.0p+0", "0x1.d4506ea8f2b00p-7", "0x1.39ac8fe95ade1p-1"],
        "NoPrivacy": ["0x0.0p+0", "0x1.d4506ea8f2b00p-7", "0x1.39404037655dap-1"],
    },
}

_PINNED = dict(epsilons=(0.4, 1.6), n=300, seed=0)

#: One tiny panel per Figure 5-19 harness and context kind, as
#: ``name -> (run, sha256 of json.dumps(result.to_dict(), sort_keys=True))``;
#: ``json`` writes each float in its shortest round-trip form, so a digest
#: pins every value bit for bit.  Recorded before the figures moved onto
#: one sweep harness.
_PANEL_PINS = {
    "fig5/6-adult": (
        lambda: run_encoding_marginals(
            "adult", alpha=2, repeats=1, max_marginals=6, **_PINNED
        ),
        "0c1a9b556e9f8a18fc1e2b5da2d45021bac384a6a67a8722ef8768b9abfee54f",
    ),
    "fig5/6-br2000": (
        lambda: run_encoding_marginals(
            "br2000", alpha=2, repeats=1, max_marginals=6, **_PINNED
        ),
        "88bd53d3532899c708a93b0ca61bf90211bc304e477517c9abef237391f8a114",
    ),
    "fig7/8-adult": (
        lambda: run_encoding_svm("adult", task_index=1, repeats=1, **_PINNED),
        "69181ea973e486cb1af005dc48e129458258efca7f046b4e857022968cd57835",
    ),
    "fig7/8-br2000": (
        lambda: run_encoding_svm("br2000", task_index=1, repeats=1, **_PINNED),
        "b900a254365f99438574e1dc2e5ce20446e8c911d7ffe4c7b561c54fc2d5c5f5",
    ),
    "fig9-nltcs-count": (
        lambda: run_beta_sweep(
            "nltcs", "count", betas=(0.1, 0.5), repeats=2, max_marginals=5,
            **_PINNED,
        ),
        "890d70642a0739f1d233d99bae2aa97b78188bfe1facd4c62783080eadca5596",
    ),
    "fig9-nltcs-svm": (
        lambda: run_beta_sweep(
            "nltcs", "svm", betas=(0.1, 0.5), repeats=2, **_PINNED
        ),
        "f2b7e96b83dbf8d17f543ef263b25eae7e9b75d9068281e638e6a538c97050ed",
    ),
    "fig9-br2000-count": (
        lambda: run_beta_sweep(
            "br2000", "count", betas=(0.1, 0.5), repeats=2, max_marginals=5,
            **_PINNED,
        ),
        "633e646a80b467c7d81848aa99d5373386e04c58ba27a693458a177a112c0f26",
    ),
    "fig9-br2000-svm": (
        lambda: run_beta_sweep(
            "br2000", "svm", betas=(0.1, 0.5), repeats=2, **_PINNED
        ),
        "264cd435d20a90d01899b70d887f63ecf4147f5474e2a0608c24af2f0ccdc78f",
    ),
    "fig10-nltcs-count": (
        lambda: run_theta_sweep(
            "nltcs", "count", thetas=(1.0, 8.0), repeats=2, max_marginals=5,
            **_PINNED,
        ),
        "7089d3737dd67deff2c561a7dfd7953e9460ad72c3f4323ec5ca38b8577a0b85",
    ),
    "fig10-nltcs-svm": (
        lambda: run_theta_sweep(
            "nltcs", "svm", thetas=(1.0, 8.0), repeats=2, **_PINNED
        ),
        "ea1bfeda71adca7acf199fb05db47d2a14de7748a4c675a93c28477a471c20b5",
    ),
    "fig10-br2000-count": (
        lambda: run_theta_sweep(
            "br2000", "count", thetas=(1.0, 8.0), repeats=2, max_marginals=5,
            **_PINNED,
        ),
        "7c0e1ed789f467c8358f141d1db603f314e88d47edd75d664ca2c2f06aa77c7d",
    ),
    "fig10-br2000-svm": (
        lambda: run_theta_sweep(
            "br2000", "svm", thetas=(1.0, 8.0), repeats=2, **_PINNED
        ),
        "408b1855d089565e57e98717f45f60b48ebd77a3a6d01e0968275b7d6cb46171",
    ),
    "fig11-nltcs-count": (
        lambda: run_error_source(
            "nltcs", "count", repeats=2, max_marginals=5, **_PINNED
        ),
        "93060ae65ff6dda96c5f3431797d9a2da29db533c20552e523ecc0cc529e05af",
    ),
    "fig11-nltcs-svm": (
        lambda: run_error_source("nltcs", "svm", repeats=2, **_PINNED),
        "58ff2cc2796694b03480931b1f60598340209ca7166978db5340da38377794eb",
    ),
    "fig11-br2000-count": (
        lambda: run_error_source(
            "br2000", "count", repeats=2, max_marginals=5, **_PINNED
        ),
        "7c318a61611ea632991f0940392c9b414e6139533d583a6186193ba636f348c7",
    ),
    "fig11-br2000-svm": (
        lambda: run_error_source("br2000", "svm", repeats=2, **_PINNED),
        "ed9be3807c6ea88e9f74b79be4802a19ef872c03c100ce501dca8d3c504137a2",
    ),
    "fig12-15-nltcs": (
        lambda: run_marginals_comparison(
            "nltcs", alpha=2, repeats=2, max_marginals=5, mwem_rounds=3,
            **_PINNED,
        ),
        "79a66b421aa2c228c913ce3a787176360b0f991b7cdccb5d37cd521be514e971",
    ),
    "fig12-15-adult": (
        lambda: run_marginals_comparison(
            "adult", alpha=2, repeats=2, max_marginals=5, mwem_rounds=3,
            **_PINNED,
        ),
        "2c3f6cd83e101c04f610b3bd60fdebcdddc8b684f54d231c1624c873af66adef",
    ),
    "fig16-19-nltcs": (
        lambda: run_svm_comparison(
            "nltcs", task_index=1, repeats=2, privgene_iterations=3, **_PINNED
        ),
        "84749e7f2a9a81b24143aaa2db9e053e6f02babcfe67a53cac2a29d157109d64",
    ),
    "fig16-19-adult": (
        lambda: run_svm_comparison(
            "adult", task_index=1, repeats=2, privgene_iterations=3, **_PINNED
        ),
        "ab9a9c932449fc88fe5cbc58207bbad4c954c2ded3bc5f55e258774f708542c2",
    ),
}


class TestFramework:
    def test_series_length_validated(self):
        result = ExperimentResult("x", "t", "eps", "err", x=[1, 2])
        with pytest.raises(ValueError):
            result.add("m", [1.0])

    def test_render_contains_series(self):
        result = ExperimentResult("x", "t", "eps", "err", x=[1, 2])
        result.add("m", [0.5, 0.25])
        text = render_result(result)
        assert "m" in text and "0.5000" in text and "0.2500" in text

    def test_subsample_deterministic(self):
        workload = [(f"a{i}",) for i in range(50)]
        s1 = subsample_workload(workload, 10, seed=1)
        s2 = subsample_workload(workload, 10, seed=1)
        assert s1 == s2
        assert len(s1) == 10

    def test_subsample_noop_when_small(self):
        workload = [("a",), ("b",)]
        assert subsample_workload(workload, 10) == workload

    def test_mean_over_repeats(self):
        from repro.experiments.framework import mean_over_repeats

        assert mean_over_repeats([1.0, 3.0]) == 2.0
        assert mean_over_repeats((0.5,)) == 0.5

    def test_mean_over_repeats_empty_is_a_clear_error(self):
        # Not a nan under a numpy RuntimeWarning: a ValueError that names
        # the problem (an empty repeat series is always a harness bug).
        import warnings

        from repro.experiments.framework import mean_over_repeats

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any RuntimeWarning would fail
            with pytest.raises(ValueError, match="empty series"):
                mean_over_repeats([])


class TestTable5:
    def test_rows_and_rendering(self):
        rows = run_table5(n=300, seed=0)
        assert set(rows) == {"nltcs", "acs", "adult", "br2000"}
        text = render_table5(rows)
        assert "nltcs" in text and "45222" in text


class TestFig4:
    def test_binary_panel_has_all_scores(self):
        result = run_fig4(dataset="nltcs", **_TINY)
        assert set(result.series) == {"I", "R", "F", "NoPrivacy"}

    def test_general_panel_drops_F(self):
        result = run_fig4(dataset="br2000", **_TINY)
        assert set(result.series) == {"I", "R", "NoPrivacy"}

    def test_noprivacy_dominates_on_average(self):
        result = run_fig4(dataset="nltcs", epsilons=(1.6,), repeats=3, n=2000)
        ceiling = result.series["NoPrivacy"][0]
        for name in ("I", "R", "F"):
            assert result.series[name][0] <= ceiling + 1e-6

    @pytest.mark.parametrize("dataset", sorted(_FIG4_GOLDEN))
    def test_series_golden(self, dataset):
        """Every float of three small panels, bit for bit: nltcs runs the
        fixed-k learner on Walsh–Hadamard counts, br2000 and adult the
        θ-mode learner on raw-row counts, adult over attributes of
        different sizes."""
        result = run_fig4(
            dataset, epsilons=(0.1, 0.4, 1.6), repeats=2, n=3000, seed=1
        )
        got = {
            name: [value.hex() for value in values]
            for name, values in result.series.items()
        }
        assert got == _FIG4_GOLDEN[dataset]

    def test_generalized_network_quality_golden(self):
        """The metric on a θ-mode Adult network with taxonomy-generalized
        parents (7 of its pairs), bit for bit."""
        table = load_dataset("adult", n=3000, seed=1)
        network = greedy_bayes_theta(
            table, 0.4, 1.2, 4.0, score="I", generalize=True,
            rng=np.random.default_rng(3), first_attribute=table.attribute_names[0],
        )
        assert sum(any(level for _, level in p.parents) for p in network) == 7
        scorer = CandidateScorer(table, "I")
        assert network_mutual_information(network, scorer).hex() == (
            "0x1.eec8edb046440p-3"
        )

    def test_network_quality_sums_left_to_right(self):
        """A fixed-k NLTCS network (15 non-root pairs) whose metric a
        pairwise ``np.sum`` of the same scores misses by one ulp; the
        golden was recorded before the metric moved onto the scorer."""
        table = load_dataset("nltcs", n=3000, seed=1)
        network = greedy_bayes_fixed_k(
            table, 2, 0.4, "F", np.random.default_rng(23),
            first_attribute=table.attribute_names[0],
        )
        scorer = CandidateScorer(table, "I")
        assert network_mutual_information(network, scorer).hex() == (
            "0x1.aad1d9db3aa6bp+1"
        )

    def test_metric_reads_the_scorer_memo(self, monkeypatch):
        """Pairs the ``I`` scorer has already scored cost no kernel call."""
        import repro.core.scoring as scoring

        table = load_dataset("br2000", n=1000, seed=2)
        scorer = CandidateScorer(table, "I")
        network = greedy_bayes_theta(
            table, None, 1.0, 4.0, score="I", rng=np.random.default_rng(0),
            scorer=scorer,
        )
        first = network_mutual_information(network, scorer)

        def forbidden(*args, **kwargs):
            raise AssertionError("the I kernel ran for a memoized pair")

        monkeypatch.setattr(scoring, "score_I_segments", forbidden)
        assert network_mutual_information(network, scorer) == first
        assert first > 0.0


class TestPanelPins:
    @pytest.mark.parametrize("panel", sorted(_PANEL_PINS))
    def test_panel_bit_for_bit(self, panel):
        run, digest = _PANEL_PINS[panel]
        text = json.dumps(run().to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestEncodings:
    def test_marginals_panel(self):
        result = run_encoding_marginals(
            dataset="adult", alpha=2, max_marginals=8, **_TINY
        )
        assert set(result.series) == {
            "binary-F", "gray-F", "vanilla-R", "hierarchical-R",
        }
        for values in result.series.values():
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_svm_panel(self):
        result = run_encoding_svm(dataset="br2000", task_index=0, **_TINY)
        assert len(result.series) == 4
        for values in result.series.values():
            assert all(0.0 <= v <= 1.0 for v in values)


class TestSweeps:
    def test_beta_panel_count(self):
        result = run_beta_sweep(
            dataset="nltcs", kind="count", betas=(0.1, 0.5),
            max_marginals=6, **_TINY
        )
        assert set(result.series) == {"eps=0.2", "eps=1.6"}
        assert result.x == [0.1, 0.5]

    def test_theta_panel_svm(self):
        result = run_theta_sweep(
            dataset="nltcs", kind="svm", thetas=(1.0, 8.0), **_TINY
        )
        assert len(result.series) == 2

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            run_beta_sweep(dataset="nltcs", kind="weird", **_TINY)


class TestErrorSource:
    def test_three_variants(self):
        result = run_error_source(
            dataset="nltcs", kind="count", max_marginals=6, **_TINY
        )
        assert set(result.series) == {"PrivBayes", "BestNetwork", "BestMarginal"}

    def test_best_marginal_dominates_on_counting(self):
        result = run_error_source(
            dataset="nltcs", kind="count", epsilons=(0.1,),
            repeats=3, n=2000, max_marginals=10, seed=1,
        )
        assert (
            result.series["BestMarginal"][0]
            <= result.series["PrivBayes"][0] + 0.02
        )


class TestComparisons:
    def test_marginals_panel_binary(self):
        result = run_marginals_comparison(
            dataset="nltcs", alpha=2, max_marginals=8, mwem_rounds=4, **_TINY
        )
        assert {"PrivBayes", "Laplace", "Fourier", "Contingency", "MWEM",
                "Uniform"} == set(result.series)

    def test_marginals_panel_general_drops_full_domain(self):
        result = run_marginals_comparison(
            dataset="br2000", alpha=2, max_marginals=6, **_TINY
        )
        assert "Contingency" not in result.series
        assert "MWEM" not in result.series
        assert "PrivBayes" in result.series

    def test_svm_panel(self):
        result = run_svm_comparison(
            dataset="nltcs", task_index=0, privgene_iterations=3, **_TINY
        )
        assert {"NoPrivacy", "PrivBayes", "Majority", "PrivateERM",
                "PrivateERM (Single)", "PrivGene"} == set(result.series)
        # NoPrivacy is constant across epsilon.
        values = result.series["NoPrivacy"]
        assert values[0] == values[1]


class TestCLI:
    def test_main_table5(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table5", "--n", "200"]) == 0
        out = capsys.readouterr().out
        assert "Dataset characteristics" in out

    def test_main_fig4_fast(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig4", "--fast", "--n", "500", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "score functions" in out

    @pytest.mark.slow
    def test_main_fig9_jobs(self, capsys):
        from repro.experiments.__main__ import main

        args = ["fig9", "--fast", "--n", "400", "--repeats", "1",
                "--max-marginals", "4"]
        assert main(args + ["--jobs", "2"]) == 0
        pooled = capsys.readouterr().out
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert pooled == serial  # --jobs never changes the rendered series

    def test_main_jobs_rejects_nonpositive(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig9", "--fast", "--jobs", "0"])
