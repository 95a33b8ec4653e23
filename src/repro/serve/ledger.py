"""Per-dataset privacy-budget ledger for the serving layer.

One real table, many fits: sequential composition (Section 3) says their
ε charges *add*, so a serving system needs one durable accountant per
dataset that every fit charges into — not the fresh per-fit accountant
the batch pipeline historically constructed.  :class:`DatasetLedger`
holds exactly that: a thread-safe
:class:`~repro.dp.accountant.PrivacyAccountant` per dataset whose grants
are persisted (atomically, via
:func:`~repro.core.serialize.atomic_write_text`) before the spender
proceeds, so a restart can never forget ε that was already spent.

Durability ordering: a charge is (1) validated and recorded in memory
under the accountant's lock, (2) written to disk, and only then (3)
returned to the caller — the caller touches data strictly after the
grant is durable.  If the write fails, the in-memory charge is unwound
(no data was accessed under it) and the error propagates.

Across processes the file is the source of truth.  For a file-backed
ledger every call that reads or changes budget state — registration,
each spend, :meth:`DatasetLedger.datasets` and
:meth:`DatasetLedger.report` — runs under the ledger's thread lock plus
an exclusive ``fcntl.flock`` on the sidecar ``<ledger>.lock`` file, and
first re-reads the ledger file (with the load-time checks).  So two
processes (or two ledgers in one process) sharing a file check every
charge against all the charges any of them has made, and a grant is in
the file before its spender sees it, so a ``kill -9`` cannot lose it.
"""

from __future__ import annotations

import fcntl
import json
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.serialize import atomic_write_text, read_charges, read_document
from repro.dp.accountant import PrivacyAccountant

PathLike = Union[str, Path]

LEDGER_FORMAT_VERSION = 1

#: Replay tolerance: a persisted ledger whose charges exceed its own
#: total by more than this was not written by the accountant (corrupt or
#: hand-edited) and is refused at load.
_REPLAY_TOLERANCE = 1e-9


class _PersistentAccountant(PrivacyAccountant):
    """An accountant whose grants are durable before they are usable.

    ``spend`` runs the whole charge-then-persist transaction inside the
    owning ledger's transaction (which first refreshes this accountant
    from the ledger file), so concurrent spenders (and the rollback of a
    failed persist) can never interleave: the entry unwound on failure
    is always the one this call appended.
    """

    def __init__(
        self, total_epsilon: float, entries: Sequence[Tuple[str, float]], owner
    ) -> None:
        super().__init__(total_epsilon, entries)
        self._owner = owner

    def _take(self, other: PrivacyAccountant) -> None:
        """Take the budget and charges of ``other``, read from the file."""
        with self._lock:
            self.total_epsilon = other.total_epsilon
            self._ledger[:] = other._ledger
            self._spent = other._spent

    def spend(self, label: str, epsilon: float) -> float:
        with self._owner._transaction():
            granted = PrivacyAccountant.spend(self, label, epsilon)
            try:
                self._owner._persist_locked()
            except BaseException:
                # The grant never became durable and no data was touched
                # under it (the caller has not seen it yet): unwind.
                self.unwind()
                raise
        return granted


class DatasetLedger:
    """Thread-safe, persistent per-dataset privacy accountants.

    Parameters
    ----------
    path:
        JSON file backing the ledger.  ``None`` keeps the ledger
        in-memory (tests, demos); otherwise the file is loaded if present
        and every grant is atomically rewritten through a temp file +
        ``os.replace``, so readers and restarts see either the previous
        complete document or the new one.  Each call re-reads the file
        under an exclusive ``flock`` on ``<path>.lock`` first, so ledgers
        in other processes sharing the file are accounted for.

    Usage::

        ledger = DatasetLedger(root / "ledger.json")
        acc = ledger.accountant("adult", total_epsilon=2.0)
        PrivBayes(epsilon=1.0).fit(table, rng, accountant=acc)  # ok
        PrivBayes(epsilon=1.0).fit(table, rng, accountant=acc)  # ok — exhausts
        PrivBayes(epsilon=1.0).fit(table, rng, accountant=acc)  # PrivacyBudgetError
    """

    def __init__(self, path: Optional[PathLike] = None) -> None:
        self._path = Path(path) if path is not None else None
        # Transaction lock: serializes every (charge, persist) pair and
        # dataset registration across all of this ledger's accountants;
        # the sidecar file lock extends that to other processes.
        self._lock = threading.Lock()
        self._accountants: Dict[str, _PersistentAccountant] = {}
        if self._path is not None and self._path.exists():
            self._load()

    @contextmanager
    def _transaction(self) -> Iterator[None]:
        """Hold the thread lock and, for a file-backed ledger, an exclusive
        ``flock`` on ``<ledger>.lock``, with every accountant refreshed
        from the ledger file."""
        with self._lock:
            if self._path is None:
                yield
                return
            lock_path = self._path.with_name(self._path.name + ".lock")
            with open(lock_path, "a") as lock_file:
                fcntl.flock(lock_file, fcntl.LOCK_EX)
                if self._path.exists():
                    self._load()
                yield

    # ------------------------------------------------------------------
    # Accountant access
    # ------------------------------------------------------------------
    def accountant(
        self, dataset: str, total_epsilon: Optional[float] = None
    ) -> PrivacyAccountant:
        """The dataset's accountant, creating it on first use.

        ``total_epsilon`` sets the dataset's end-to-end budget when the
        dataset is new; for a known dataset it is optional but, when
        given, must match the recorded budget (a silently re-opened
        budget would be a composition bug, so a mismatch raises).
        """
        with self._transaction():
            existing = self._accountants.get(dataset)
            if existing is not None:
                if (
                    total_epsilon is not None
                    and float(total_epsilon) != existing.total_epsilon
                ):
                    raise ValueError(
                        f"dataset {dataset!r} already has budget "
                        f"ε={existing.total_epsilon:g}; cannot reopen with "
                        f"ε={float(total_epsilon):g}"
                    )
                return existing
            if total_epsilon is None:
                raise KeyError(
                    f"dataset {dataset!r} is not in the ledger; pass "
                    "total_epsilon to register it"
                )
            account = _PersistentAccountant(total_epsilon, [], self)
            self._accountants[dataset] = account
            try:
                self._persist_locked()
            except BaseException:
                del self._accountants[dataset]
                raise
            return account

    def datasets(self) -> List[str]:
        """Registered dataset names, sorted."""
        with self._transaction():
            return sorted(self._accountants)

    def report(self) -> Dict[str, Dict]:
        """Budget summary per dataset (for the CLI / monitoring)."""
        with self._transaction():
            return {
                name: {
                    "total_epsilon": account.total_epsilon,
                    "spent": account.spent,
                    "remaining": account.remaining,
                    "charges": account.ledger,
                }
                for name, account in sorted(self._accountants.items())
            }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Read the ledger file into the accountants, after checking it.

        A dataset already held keeps its accountant object (callers hold
        it) and takes the file's budget and charges; a dataset held only
        in memory is kept, so its charges are written back, never lost.
        """
        datasets = read_document(self._path, "ledger file").document(
            "format_version", LEDGER_FORMAT_VERSION, "datasets"
        )["datasets"]
        loaded = {}
        for name, entry in sorted(datasets.members().items()):
            fields = entry.fields("total_epsilon", "ledger")
            account = entry.call(
                _PersistentAccountant, fields["total_epsilon"].number(),
                read_charges(fields["ledger"]), self,
            )
            if account.remaining < -_REPLAY_TOLERANCE:
                raise entry.error(
                    f"records ε spend {account.spent:g} exceeding its total "
                    f"budget {account.total_epsilon:g} — refusing a ledger "
                    "the accountant could not have written"
                )
            loaded[name] = account
        for name, account in loaded.items():
            held = self._accountants.get(name)
            if held is None:
                self._accountants[name] = account
            else:
                held._take(account)

    def _persist_locked(self) -> None:
        """Write the full ledger state; caller is inside
        :meth:`_transaction`."""
        if self._path is None:
            return
        doc = {
            "format_version": LEDGER_FORMAT_VERSION,
            "datasets": {
                name: {
                    "total_epsilon": account.total_epsilon,
                    # The accountant's own lock is never held here (the
                    # transaction lock serializes spends), so reading the
                    # private list directly is race-free; the public
                    # .ledger property would re-take that free lock.
                    "ledger": [
                        [label, amount] for label, amount in account._ledger
                    ],
                }
                for name, account in sorted(self._accountants.items())
            },
        }
        atomic_write_text(self._path, json.dumps(doc, indent=2) + "\n")
