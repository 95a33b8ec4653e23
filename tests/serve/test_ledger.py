"""DatasetLedger: durable cumulative ε across fits, processes, threads."""

import json
import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from repro.core.privbayes import PrivBayes
from repro.datasets.synthetic import random_binary_table
from repro.dp.accountant import PrivacyBudgetError
from repro.serve.ledger import DatasetLedger


@pytest.fixture
def tiny_table():
    return random_binary_table(n=200, d=3, seed=11)


class TestLedgerBasics:
    def test_in_memory_roundtrip(self):
        ledger = DatasetLedger(None)
        account = ledger.accountant("adult", 2.0)
        account.spend("fit-1", 1.0)
        assert ledger.accountant("adult") is account
        assert account.remaining == pytest.approx(1.0)

    def test_unknown_dataset_requires_budget(self):
        ledger = DatasetLedger(None)
        with pytest.raises(KeyError, match="not in the ledger"):
            ledger.accountant("nope")

    def test_budget_reopen_mismatch_rejected(self):
        ledger = DatasetLedger(None)
        ledger.accountant("adult", 2.0)
        with pytest.raises(ValueError, match="already has budget"):
            ledger.accountant("adult", 3.0)
        # Matching or omitted budget is fine.
        ledger.accountant("adult", 2.0)
        ledger.accountant("adult")

    def test_report_lists_charges(self):
        ledger = DatasetLedger(None)
        ledger.accountant("a", 1.0).spend("x", 0.25)
        ledger.accountant("b", 2.0)
        report = ledger.report()
        assert sorted(report) == ["a", "b"]
        assert report["a"]["charges"] == [("x", 0.25)]
        assert report["a"]["remaining"] == pytest.approx(0.75)


class TestPersistence:
    def test_spend_survives_process_restart(self, tmp_path):
        path = tmp_path / "ledger.json"
        first = DatasetLedger(path)
        first.accountant("adult", 2.0).spend("fit-1", 1.25)

        reloaded = DatasetLedger(path)  # a fresh "process"
        account = reloaded.accountant("adult")
        assert account.total_epsilon == 2.0
        assert account.spent == pytest.approx(1.25)
        assert account.ledger == [("fit-1", 1.25)]
        with pytest.raises(PrivacyBudgetError):
            account.spend("fit-2", 1.0)

    def test_grant_is_durable_before_spend_returns(self, tmp_path):
        path = tmp_path / "ledger.json"
        ledger = DatasetLedger(path)
        ledger.accountant("adult", 2.0).spend("fit-1", 0.5)
        on_disk = json.loads(path.read_text())
        assert on_disk["datasets"]["adult"]["ledger"] == [["fit-1", 0.5]]

    def test_failed_persist_unwinds_the_charge(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.json"
        ledger = DatasetLedger(path)
        account = ledger.accountant("adult", 2.0)
        account.spend("fit-1", 0.5)

        import repro.serve.ledger as ledger_module

        def exploding_write(target, text):
            raise OSError("disk full")

        monkeypatch.setattr(ledger_module, "atomic_write_text", exploding_write)
        with pytest.raises(OSError, match="disk full"):
            account.spend("fit-2", 0.5)
        monkeypatch.undo()
        # The unusable grant was rolled back: memory and disk agree.
        assert account.spent == pytest.approx(0.5)
        assert json.loads(path.read_text())["datasets"]["adult"]["ledger"] == [
            ["fit-1", 0.5]
        ]

    def test_corrupt_ledger_file_refused(self, tmp_path):
        path = tmp_path / "ledger.json"
        DatasetLedger(path).accountant("adult", 2.0)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError, match="ledger.json"):
            DatasetLedger(path)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_non_finite_spend_persists_nothing(self, tmp_path, epsilon):
        path = tmp_path / "ledger.json"
        account = DatasetLedger(path).accountant("adult", 1.0)
        account.spend("fit", 0.5)
        before = path.read_text()
        with pytest.raises(ValueError, match="finite positive"):
            account.spend("bad", epsilon)
        assert path.read_text() == before
        assert DatasetLedger(path).report()["adult"]["charges"] == [
            ("fit", 0.5)
        ]

    def test_non_finite_budget_not_registered(self, tmp_path):
        path = tmp_path / "ledger.json"
        ledger = DatasetLedger(path)
        with pytest.raises(ValueError, match="finite positive"):
            ledger.accountant("adult", float("nan"))
        assert ledger.datasets() == []
        assert not path.exists()

    def test_overdrawn_ledger_file_refused(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "datasets": {
                        "adult": {
                            "total_epsilon": 1.0,
                            "ledger": [["fit", 0.8], ["fit", 0.8]],
                        }
                    },
                }
            )
        )
        with pytest.raises(ValueError, match="exceeding its total"):
            DatasetLedger(path)


class TestConcurrentFits:
    def test_sixteen_racing_fits_never_overgrant(self, tmp_path, tiny_table):
        """Acceptance criterion: 16 threads fitting against one dataset
        budget of 1.0 at ε=0.25 each — exactly 4 fits granted, every
        loser raises PrivacyBudgetError, and the persisted ledger agrees.
        """
        path = tmp_path / "ledger.json"
        ledger = DatasetLedger(path)
        account = ledger.accountant("race", 1.0)
        barrier = threading.Barrier(16)
        outcomes = []
        outcome_lock = threading.Lock()

        def fitter(index):
            rng = np.random.default_rng(1000 + index)
            barrier.wait()
            try:
                PrivBayes(epsilon=0.25).fit(
                    tiny_table, rng, accountant=account
                )
            except PrivacyBudgetError:
                with outcome_lock:
                    outcomes.append("refused")
            else:
                with outcome_lock:
                    outcomes.append("granted")

        threads = [
            threading.Thread(target=fitter, args=(index,)) for index in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes.count("granted") == 4
        assert outcomes.count("refused") == 12
        assert account.spent == pytest.approx(1.0)
        persisted = json.loads(path.read_text())["datasets"]["race"]["ledger"]
        assert len(persisted) == 4
        assert sum(amount for _, amount in persisted) <= 1.0 + 1e-9


def _ledger_charges(path, dataset):
    return json.loads(path.read_text())["datasets"][dataset]["ledger"]


def _ledger_text(total, charges, version=1):
    """A ledger document holding one dataset, ``adult``."""
    return json.dumps(
        {
            "format_version": version,
            "datasets": {"adult": {"total_epsilon": total, "ledger": charges}},
        }
    )


class TestAcrossProcesses:
    """The ledger file is the source of truth: every spend re-reads it
    under an exclusive lock on ``<ledger>.lock``."""

    def test_two_ledgers_on_one_file_never_overgrant(self, tmp_path):
        path = tmp_path / "ledger.json"
        first = DatasetLedger(path)
        first.accountant("adult", 1.0)
        second = DatasetLedger(path)
        first.accountant("adult").spend("fit-a", 0.6)
        with pytest.raises(PrivacyBudgetError):
            second.accountant("adult").spend("fit-b", 0.6)
        assert _ledger_charges(path, "adult") == [["fit-a", 0.6]]
        # The refused ledger now sees the other ledger's charge.
        assert second.report()["adult"]["spent"] == 0.6

    def test_registration_is_visible_to_another_ledger(self, tmp_path):
        path = tmp_path / "ledger.json"
        second = DatasetLedger(path)
        DatasetLedger(path).accountant("adult", 1.0).spend("fit-a", 0.25)
        assert second.datasets() == ["adult"]
        # Known from the file, so no budget is needed to open it.
        assert second.accountant("adult").remaining == 0.75

    def test_registrations_from_two_ledgers_both_persist(self, tmp_path):
        path = tmp_path / "ledger.json"
        first, second = DatasetLedger(path), DatasetLedger(path)
        first.accountant("adult", 1.0)
        second.accountant("nltcs", 2.0)
        assert sorted(json.loads(path.read_text())["datasets"]) == [
            "adult",
            "nltcs",
        ]
        assert DatasetLedger(path).report()["adult"]["total_epsilon"] == 1.0

    def test_budget_mismatch_checked_against_the_file(self, tmp_path):
        path = tmp_path / "ledger.json"
        second = DatasetLedger(path)
        DatasetLedger(path).accountant("adult", 1.0)
        with pytest.raises(ValueError, match="already has budget"):
            second.accountant("adult", 2.0)
        assert json.loads(path.read_text())["datasets"]["adult"][
            "total_epsilon"
        ] == 1.0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{ truncated", "not valid JSON"),
            (
                json.dumps(
                    {
                        "format_version": 1,
                        "datasets": {
                            "adult": {
                                "total_epsilon": 1.0,
                                "ledger": [["x", 2.0]],
                            }
                        },
                    }
                ),
                "exceeding its total",
            ),
            (
                json.dumps(
                    {
                        "format_version": 1,
                        "datasets": {
                            "adult": {
                                "total_epsilon": 1.0,
                                "ledger": [["x", float("nan")]],
                            }
                        },
                    }
                ),
                r"ledger.json: datasets\.adult: replayed charge 'x' must be a "
                r"finite positive number; got nan",
            ),
            (
                json.dumps(
                    {
                        "format_version": 1,
                        "datasets": {
                            "adult": {
                                "total_epsilon": float("nan"),
                                "ledger": [],
                            }
                        },
                    }
                ),
                r"ledger.json: datasets\.adult: total_epsilon must be a "
                r"finite positive number; got nan",
            ),
            ("[]", "ledger.json: expected an object; got a list"),
            (
                _ledger_text(1.0, [], version=True),
                "ledger.json: format_version: unsupported version True",
            ),
            (
                _ledger_text("1.0", []),
                r"ledger.json: datasets\.adult\.total_epsilon: expected a "
                r"number; got '1.0'",
            ),
            (
                _ledger_text(1.0, [["x", "0.5"]]),
                r"ledger.json: datasets\.adult\.ledger\[0\]\[1\]: expected "
                r"a number; got '0.5'",
            ),
            (
                _ledger_text(1.0, [["x", True]]),
                r"ledger.json: datasets\.adult\.ledger\[0\]\[1\]: expected "
                r"a number; got True",
            ),
            (
                _ledger_text(10**400, []),
                r"ledger.json: datasets\.adult\.total_epsilon: expected a "
                r"number in the float range; got 1000",
            ),
            (
                _ledger_text(1.0, [[5, 0.5]]),
                r"ledger.json: datasets\.adult\.ledger\[0\]\[0\]: expected "
                r"a string; got 5",
            ),
            (
                _ledger_text(1.0, [[None, 0.5]]),
                r"ledger.json: datasets\.adult\.ledger\[0\]\[0\]: expected "
                r"a string; got None",
            ),
        ],
        ids=[
            "corrupt", "overdrawn", "nan-charge", "nan-budget", "list",
            "bool-version", "string-budget", "string-charge", "bool-charge",
            "budget-past-float-range", "integer-label", "null-label",
        ],
    )
    def test_bad_file_refused_before_any_grant(self, tmp_path, text, message):
        """A file another writer spoiled is refused at the next spend,
        and the refusal leaves it as it is."""
        path = tmp_path / "ledger.json"
        account = DatasetLedger(path).accountant("adult", 1.0)
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            account.spend("fit", 0.1)
        assert path.read_text() == text

    def test_deleted_file_is_rewritten_with_every_held_charge(self, tmp_path):
        """Charges a ledger holds are never dropped because the file lost
        them: the next spend writes them back."""
        path = tmp_path / "ledger.json"
        account = DatasetLedger(path).accountant("adult", 1.0)
        account.spend("fit-a", 0.25)
        path.unlink()
        account.spend("fit-b", 0.5)
        assert _ledger_charges(path, "adult") == [["fit-a", 0.25], ["fit-b", 0.5]]

    def test_lock_is_a_sidecar_file(self, tmp_path):
        path = tmp_path / "ledger.json"
        DatasetLedger(path).accountant("adult", 1.0).spend("fit", 0.5)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ledger.json",
            "ledger.json.lock",
        ]
        assert _ledger_charges(path, "adult") == [["fit", 0.5]]

    def test_in_memory_ledger_touches_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ledger = DatasetLedger()
        ledger.accountant("adult", 1.0).spend("fit", 0.5)
        assert ledger.report()["adult"]["spent"] == 0.5
        assert list(tmp_path.iterdir()) == []

    def test_forked_spenders_grant_exactly_the_budget(self, tmp_path):
        """4 processes × 6 spends of 0.125 against 1.0: exactly 8 grants,
        and the file records exactly those 8."""
        path = tmp_path / "ledger.json"
        DatasetLedger(path).accountant("race", 1.0)
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(4)
        grants = context.Queue()

        def spender(index):
            account = DatasetLedger(path).accountant("race")
            barrier.wait()
            granted = []
            for attempt in range(6):
                label = f"p{index}-{attempt}"
                try:
                    account.spend(label, 0.125)
                except PrivacyBudgetError:
                    continue
                granted.append(label)
            grants.put(granted)

        workers = [context.Process(target=spender, args=(i,)) for i in range(4)]
        for worker in workers:
            worker.start()
        granted = [label for _ in workers for label in grants.get(timeout=60)]
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        assert len(granted) == 8
        recorded = _ledger_charges(path, "race")
        assert sorted(label for label, _ in recorded) == sorted(granted)
        assert DatasetLedger(path).accountant("race").spent == 1.0

    def test_kill_9_loses_no_granted_charge(self, tmp_path):
        """A spender killed in the middle of its loop: every grant it
        reported (only after ``spend`` returned) is in the file, and the
        file stays within its budget."""
        path = tmp_path / "ledger.json"
        DatasetLedger(path).accountant("crash", 1.0)
        read_end, write_end = os.pipe()

        def spender():
            os.close(read_end)
            account = DatasetLedger(path).accountant("crash")
            for attempt in range(900):
                label = f"g{attempt}"
                account.spend(label, 0.001)
                os.write(write_end, f"{label}\n".encode())

        worker = multiprocessing.get_context("fork").Process(target=spender)
        worker.start()
        os.close(write_end)
        received = b""
        with os.fdopen(read_end, "rb", buffering=0) as reader:
            while received.count(b"\n") < 20:
                chunk = reader.read(4096)
                assert chunk, "spender exited before it was killed"
                received += chunk
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(timeout=60)
            while True:
                chunk = reader.read(4096)
                if not chunk:
                    break
                received += chunk
        assert worker.exitcode == -signal.SIGKILL
        reported = received.decode().split("\n")[:-1]  # complete lines only
        recorded = {label for label, _ in _ledger_charges(path, "crash")}
        assert 20 <= len(reported) <= len(recorded) < 900  # killed mid-loop
        assert set(reported) <= recorded
        account = DatasetLedger(path).accountant("crash")
        assert account.spent <= account.total_epsilon
