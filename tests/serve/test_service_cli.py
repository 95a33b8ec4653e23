"""SynthesisService wiring + the ``python -m repro.serve`` CLI."""

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.privbayes import PrivBayesConfig
from repro.data.io import write_csv
from repro.datasets import load_adult, load_nltcs
from repro.datasets.synthetic import random_binary_table
from repro.dp.accountant import PrivacyBudgetError
from repro.serve.__main__ import main as serve_main
from repro.serve.service import SynthesisService

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def table():
    return random_binary_table(n=600, d=4, seed=9)


class TestService:
    def test_fit_registers_and_charges(self, table):
        with SynthesisService(None) as service:
            config = PrivBayesConfig(epsilon=1.0)
            model = service.fit(
                "demo",
                table,
                config,
                rng=np.random.default_rng(0),
                dataset_budget=3.0,
            )
            assert service.model("demo", config) is model
            account = service.ledger.accountant("demo")
            assert account.spent == pytest.approx(1.0)

    def test_budget_refusal_and_no_registration(self, table):
        with SynthesisService(None) as service:
            config = PrivBayesConfig(epsilon=1.0)
            service.fit(
                "demo",
                table,
                config,
                rng=np.random.default_rng(0),
                dataset_budget=1.0,
            )
            with pytest.raises(PrivacyBudgetError):
                service.fit(
                    "demo",
                    table,
                    PrivBayesConfig(epsilon=0.5),
                    rng=np.random.default_rng(1),
                )
            with pytest.raises(KeyError):
                service.model("demo", PrivBayesConfig(epsilon=0.5))

    def test_persistent_roundtrip_through_restart(self, tmp_path, table):
        config = PrivBayesConfig(epsilon=1.0)
        with SynthesisService(tmp_path) as service:
            service.fit(
                "demo",
                table,
                config,
                rng=np.random.default_rng(0),
                dataset_budget=2.0,
            )

        with SynthesisService(tmp_path) as restarted:
            model = restarted.model("demo", config)
            assert model.source_n == table.n
            account = restarted.ledger.accountant("demo")
            assert account.remaining == pytest.approx(1.0)

            async def drive():
                sampler = restarted.sampler(
                    "demo", config, np.random.default_rng(4)
                )
                return await asyncio.gather(
                    sampler.sample(64), sampler.sample(32)
                )

            first, second = asyncio.run(drive())
            assert first.n == 64 and second.n == 32

    def test_closed_sampler_is_replaced(self):
        """The serve CLI's ``with sampler:`` closes the cached sampler; the
        next ``sampler`` call for that model hands out a new one, seeded
        from that call's rng, instead of the closed one."""
        config = PrivBayesConfig(epsilon=1.0)
        with SynthesisService(None) as service:
            service.fit(
                "d",
                load_adult(n=500, seed=0),
                config,
                rng=np.random.default_rng(0),
                dataset_budget=1.0,
            )
            with service.sampler("d", config, np.random.default_rng(5)) as first:
                drawn = asyncio.run(first.sample(5))
            second = service.sampler("d", config, np.random.default_rng(5))
            again = asyncio.run(second.sample(5))
            for name in drawn.attribute_names:
                assert np.array_equal(again.column(name), drawn.column(name))
            assert first.closed and not second.closed
            assert service.sampler("d", config) is second

    def test_marginals_direct(self, table):
        with SynthesisService(None) as service:
            config = PrivBayesConfig(epsilon=1.0)
            service.fit(
                "demo",
                table,
                config,
                rng=np.random.default_rng(0),
                dataset_budget=1.0,
            )
            answers = service.marginals("demo", config, [["x0"], ["x1", "x2"]])
            assert set(answers) == {("x0",), ("x1", "x2")}
            for values in answers.values():
                assert np.asarray(values).sum() == pytest.approx(1.0)

    def test_nan_spend_refused_and_budget_kept(self, tmp_path, table):
        """A NaN charge is refused and persists nothing, so the budget
        still holds: of two fits at 0.9 on a 1.0 budget, one is granted."""
        with SynthesisService(tmp_path) as service:
            account = service.ledger.accountant("demo", 1.0)
            ledger_file = tmp_path / "ledger.json"
            before = ledger_file.read_text()
            with pytest.raises(ValueError, match="finite positive"):
                account.spend("fit", float("nan"))
            with pytest.raises(ValueError, match="finite positive"):
                PrivBayesConfig(epsilon=float("nan"))
            assert ledger_file.read_text() == before
            service.fit(
                "demo",
                table,
                PrivBayesConfig(epsilon=0.9),
                rng=np.random.default_rng(0),
            )
            with pytest.raises(PrivacyBudgetError):
                service.fit(
                    "demo",
                    table,
                    PrivBayesConfig(epsilon=0.9, beta=0.4),
                    rng=np.random.default_rng(1),
                )
            assert account.spent == pytest.approx(0.9)
        assert json.loads(ledger_file.read_text())["datasets"]["demo"][
            "total_epsilon"
        ] == 1.0

    def test_config_kwargs_shortcut(self, table):
        with SynthesisService(None) as service:
            model = service.fit(
                "demo",
                table,
                rng=np.random.default_rng(0),
                dataset_budget=1.0,
                epsilon=1.0,
                beta=0.4,
            )
            assert model.config.beta == 0.4
            with pytest.raises(ValueError, match="not both"):
                service.fit(
                    "demo",
                    table,
                    PrivBayesConfig(epsilon=0.1),
                    epsilon=0.1,
                )


#: Configs an Adult table refuses: each must raise before the ledger
#: reserves anything.
REFUSED_CONFIGS = {
    "F-on-general": dict(score="F"),
    "k-on-general": dict(k=2),
    "unknown-first-attribute": dict(first_attribute="nope"),
    "binary-F-on-wide-attributes": dict(mode="binary", score="F"),
}


@pytest.fixture(scope="module")
def adult():
    return load_adult(n=2000, seed=0)


class TestRefusedConfigReservesNothing:
    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "file"])
    @pytest.mark.parametrize("name", sorted(REFUSED_CONFIGS))
    def test_no_charge(self, tmp_path, adult, name, durable):
        root = tmp_path / "state" if durable else None
        config = PrivBayesConfig(epsilon=0.5, **REFUSED_CONFIGS[name])
        with SynthesisService(root) as service:

            def refused_fit():
                with pytest.raises(ValueError) as refused:
                    service.fit(
                        "adult",
                        adult,
                        config,
                        rng=np.random.default_rng(0),
                        dataset_budget=2.0,
                    )
                assert not isinstance(refused.value, PrivacyBudgetError)

            refused_fit()  # first contact: the dataset is not registered
            assert service.ledger.datasets() == []
            service.ledger.accountant("adult", 2.0)
            refused_fit()  # registered: no charge
            assert service.ledger.accountant("adult").ledger == []
            assert len(service.registry) == 0
        if durable:
            with SynthesisService(root) as reopened:
                assert reopened.ledger.accountant("adult").ledger == []

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("k", 2.0, "k must be an integer; got 2.0"),
            ("k", True, "k must be an integer; got True"),
            ("k", "3", "k must be an integer; got '3'"),
            ("beta", True, "beta must be a real number; got True"),
            ("beta", "0.3", "beta must be a real number; got '0.3'"),
            ("theta", True, "theta must be a real number; got True"),
            ("theta", "4", "theta must be a real number; got '4'"),
        ],
        ids=[
            "float-k", "bool-k", "string-k", "bool-beta", "string-beta",
            "bool-theta", "string-theta",
        ],
    )
    def test_mistyped_field_refused_before_any_charge(
        self, field, value, message
    ):
        """A float or boolean k used to be charged and then fail in the
        first greedy round with a TypeError; theta=True fit as theta = 1;
        a string beta or theta escaped as a bare TypeError."""
        nltcs = load_nltcs(n=500, seed=0)
        with SynthesisService(None) as service:
            service.ledger.accountant("nltcs", 1.0)
            with pytest.raises(ValueError, match=message):
                service.fit(
                    "nltcs",
                    nltcs,
                    PrivBayesConfig(epsilon=0.5, **{field: value}),
                    dataset_budget=1.0,
                )
            assert service.ledger.report()["nltcs"]["spent"] == 0
            assert len(service.registry) == 0

    def test_binary_F_at_k0_still_fits(self, adult):
        """With k = 0 Algorithm 2 never scores, so F on wide attributes
        is not refused."""
        config = PrivBayesConfig(epsilon=0.5, mode="binary", score="F", k=0)
        with SynthesisService(None) as service:
            model = service.fit(
                "adult",
                adult,
                config,
                rng=np.random.default_rng(0),
                dataset_budget=2.0,
            )
            assert model.k == 0
            assert service.ledger.accountant("adult").ledger == [
                ("privbayes-fit", 0.5)
            ]


def _run_cli(*arguments, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.serve", *arguments],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=240,
    )


class TestCli:
    def test_demo_runs_clean(self):
        result = _run_cli("demo", "--seed", "0")
        assert result.returncode == 0, result.stderr
        assert "refused before touching data" in result.stdout

    def test_fit_sample_budget_flow(self, tmp_path, table):
        csv_path = tmp_path / "data.csv"
        write_csv(table, csv_path)
        root = tmp_path / "state"

        fitted = _run_cli(
            "fit",
            "--root", str(root),
            "--dataset", "demo",
            "--csv", str(csv_path),
            "--epsilon", "1.0",
            "--dataset-budget", "1.5",
            "--seed", "0",
        )
        assert fitted.returncode == 0, fitted.stderr

        sampled = _run_cli(
            "sample",
            "--root", str(root),
            "--dataset", "demo",
            "--epsilon", "1.0",
            "--rows", "200",
            "--requests", "4",
            "--seed", "1",
            "--out", str(tmp_path / "synth.csv"),
        )
        assert sampled.returncode == 0, sampled.stderr
        assert "1 coalesced draw" in sampled.stdout
        synth_lines = (tmp_path / "synth.csv").read_text().splitlines()
        assert len(synth_lines) == 201  # header + rows

        budget = _run_cli("budget", "--root", str(root))
        assert budget.returncode == 0, budget.stderr
        report = json.loads(budget.stdout)
        assert report["demo"]["spent"] == pytest.approx(1.0)

        refused = _run_cli(
            "fit",
            "--root", str(root),
            "--dataset", "demo",
            "--csv", str(csv_path),
            "--epsilon", "1.0",
            "--seed", "2",
        )
        assert refused.returncode == 3
        assert "refused" in refused.stderr

    def test_sample_unknown_model_fails_cleanly(self, tmp_path):
        result = _run_cli(
            "sample",
            "--root", str(tmp_path / "state"),
            "--dataset", "ghost",
            "--epsilon", "1.0",
            "--rows", "10",
        )
        assert result.returncode == 2
        assert "no model registered" in result.stderr

    @pytest.mark.parametrize("command", ["fit", "sample", "marginals"])
    def test_refused_config_is_one_line(self, tmp_path, command):
        """A config the CLI refuses prints one line and exits 2, before
        any CSV is read or any service state is written."""
        root = tmp_path / "state"
        extra = {
            "fit": ["--csv", str(tmp_path / "missing.csv")],
            "sample": ["--rows", "10"],
            "marginals": ["--query", "x0"],
        }[command]
        result = _run_cli(
            command,
            "--root", str(root),
            "--dataset", "demo",
            "--epsilon", "nan",
            *extra,
        )
        assert result.returncode == 2
        assert result.stderr.strip().splitlines() == [
            "error: epsilon must be a finite positive number; got nan"
        ]
        assert not root.exists()

    def test_config_the_table_refuses_is_one_line(self, tmp_path, adult):
        csv_path = tmp_path / "adult.csv"
        write_csv(adult, csv_path)
        root = tmp_path / "state"
        result = _run_cli(
            "fit",
            "--root", str(root),
            "--dataset", "adult",
            "--csv", str(csv_path),
            "--epsilon", "0.5",
            "--score", "F",
            "--dataset-budget", "2.0",
        )
        assert result.returncode == 2
        assert result.stderr.strip().splitlines() == [
            "error: score 'F' is not computable on general domains"
        ]
        assert not (root / "ledger.json").exists()
        assert not list((root / "models").glob("*.json"))


#: Arguments each file-reading command needs besides ``--root``.
COMMAND_ARGS = {
    "fit": ["--dataset", "demo", "--csv", "{csv}", "--epsilon", "0.5"],
    "sample": ["--dataset", "demo", "--epsilon", "1.0", "--rows", "10"],
    "marginals": ["--dataset", "demo", "--epsilon", "1.0", "--query", "x0"],
    "budget": [],
    "models": [],
}


def _rewrite_registry_entry(root, damage):
    entry = next((root / "models").glob("*.json"))
    doc = json.loads(entry.read_text())
    damage(doc)
    entry.write_text(json.dumps(doc))
    return entry


def _damage_registry_entry(root):
    entry = _rewrite_registry_entry(
        root, lambda doc: doc["model"]["network"][0].pop("child")
    )
    return f"error: registry entry {entry}: model.network[0]: missing key 'child'"


def _damage_ledger(root):
    ledger = root / "ledger.json"
    doc = json.loads(ledger.read_text())
    doc["datasets"]["demo"]["ledger"][0][1] = float("nan")
    ledger.write_text(json.dumps(doc))
    return (
        f"error: ledger file {ledger}: datasets.demo: replayed charge "
        "'privbayes-fit' must be a finite positive number; got nan"
    )


def _unplaced_attribute(root):
    """An attribute the network does not place: ``models`` listed such an
    entry, and every draw from it failed naming no file."""
    entry = _rewrite_registry_entry(
        root,
        lambda doc: doc["model"]["attributes"].append(
            dict(doc["model"]["attributes"][0], name="extra_col")
        ),
    )
    return (
        f"error: registry entry {entry}: model: model's network does not "
        "place schema attribute(s) ['extra_col']"
    )


def _unhashable_config(root):
    entry = _rewrite_registry_entry(
        root, lambda doc: doc["config"].__setitem__("first_attribute", {})
    )
    return (
        f"error: registry entry {entry}: config: first_attribute must be an "
        "attribute name; got {}"
    )


def _ledger_list(root):
    ledger = root / "ledger.json"
    ledger.write_text("[]")
    return f"error: ledger file {ledger}: expected an object; got a list"


class TestBadInputFileIsOneLine:
    """Every command that opens service state prints a bad input file as
    one ``error:`` line and exits 2, as it does a refused config."""

    @pytest.fixture
    def root(self, tmp_path, table):
        root = tmp_path / "state"
        with SynthesisService(root) as service:
            service.fit(
                "demo",
                table,
                PrivBayesConfig(epsilon=1.0),
                rng=np.random.default_rng(0),
                dataset_budget=2.0,
            )
        return root

    @pytest.mark.parametrize(
        "damage",
        [
            _damage_registry_entry, _damage_ledger, _unplaced_attribute,
            _unhashable_config, _ledger_list,
        ],
        ids=[
            "registry-entry", "ledger", "unplaced-attribute",
            "unhashable-config", "ledger-list",
        ],
    )
    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    def test_damaged_state(self, tmp_path, table, root, capsys, command, damage):
        csv_path = tmp_path / "data.csv"
        write_csv(table, csv_path)
        expected = damage(root)
        arguments = [a.format(csv=csv_path) for a in COMMAND_ARGS[command]]
        capsys.readouterr()
        assert serve_main([command, "--root", str(root), *arguments]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(expected), err

    def test_missing_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "nope.csv"
        root = tmp_path / "state"
        assert serve_main([
            "fit", "--root", str(root), "--dataset", "d", "--csv",
            str(csv_path), "--epsilon", "1", "--dataset-budget", "2",
        ]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert str(csv_path) in err[0]
        assert not root.exists()

    def test_unwritable_out(self, tmp_path, root, capsys):
        out = tmp_path / "nonexistent" / "x.csv"
        arguments = COMMAND_ARGS["sample"]
        assert serve_main(
            ["sample", "--root", str(root), *arguments, "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert str(out) in err[0]

    def test_ragged_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "ragged.csv"
        csv_path.write_text("x0,x1\n0,1\n1\n")
        root = tmp_path / "state"
        arguments = [a.format(csv=csv_path) for a in COMMAND_ARGS["fit"]]
        assert serve_main(["fit", "--root", str(root), *arguments]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {csv_path}: the row on line 3 has 1 fields, expected 2"
        ]
        assert not root.exists()
