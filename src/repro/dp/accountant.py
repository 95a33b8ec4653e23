"""Sequential-composition privacy budget accounting.

Differential privacy composes additively across sequential data accesses
(Section 3, "composability").  The accountant is a small ledger: algorithms
charge each access before touching the data, and the ledger refuses charges
that would exceed the total budget.
"""

from __future__ import annotations

import numbers
import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

_TOLERANCE = 1e-9


class PrivacyBudgetError(ValueError, RuntimeError):
    """Raised when a charge would exceed the remaining privacy budget.

    Subclasses both :class:`ValueError` (over-spends are invalid values —
    the contract of :meth:`PrivacyAccountant.spend`) and
    :class:`RuntimeError` (the historical base, kept so existing
    ``except RuntimeError`` handlers continue to work).
    """


def check_epsilon(epsilon: float, name: str = "epsilon") -> None:
    """Raise :class:`ValueError`, naming ``name`` and the value, unless
    ``epsilon`` is a finite positive number.

    Every ε entering the accountant or a mechanism passes through here:
    a NaN fails both ``<= 0`` and every budget comparison, so a bare sign
    check would let it through and turn the budget off.  A value that is
    not a real number (a string, a boolean) is refused too, not converted:
    ``True`` would otherwise pass as 1.  So is an integer past the float
    range, which the accountant could not hold as a float.
    """
    if isinstance(epsilon, bool) or not (
        isinstance(epsilon, numbers.Real)
        and 0 < epsilon <= sys.float_info.max
    ):
        raise ValueError(
            f"{name} must be a finite positive number; got {epsilon!r}"
        )


def split_epsilon(
    total: float, fractions: Sequence[float], remainder: bool = False
) -> Tuple[float, ...]:
    """Split a budget into shares ``total * f`` for each fraction.

    PrivBayes's ``ε₁ = βε`` / ``ε₂ = (1 − β)ε`` phases and the two-table
    release's three shares are split here.  The shares compose
    sequentially, so the checks below keep their sum within ``total``.

    Parameters
    ----------
    total:
        The budget being split; must be finite and positive.
    fractions:
        Positive fractions; their sum may not exceed 1 (beyond float
        tolerance).
    remainder:
        When true, append ``total - sum(shares)`` as one extra final share —
        e.g. ``split_epsilon(eps, (beta,), remainder=True)`` yields exactly
        ``(beta * eps, eps - beta * eps)``, bit-identical to the historical
        two-line split of :class:`~repro.core.privbayes.PrivBayes`.
    """
    check_epsilon(total, "total epsilon")
    fractions = tuple(float(f) for f in fractions)
    if not fractions:
        raise ValueError("need at least one fraction")
    if any(f <= 0 for f in fractions):
        raise ValueError(f"fractions must be positive; got {fractions}")
    if sum(fractions) > 1.0 + _TOLERANCE:
        raise ValueError(
            f"fractions sum to {sum(fractions):g} > 1; shares would exceed "
            "the total budget"
        )
    shares = tuple(total * f for f in fractions)
    if remainder:
        last = total - sum(shares)
        if last <= 0:
            raise ValueError(
                "fractions leave no remainder share; drop remainder=True"
            )
        shares = shares + (last,)
    return shares


def split_epsilon_even(total: float, parts: int) -> float:
    """Per-part share of an even ``total / parts`` budget split.

    The composition argument: ``parts`` sequential releases at
    ``total / parts`` each compose to ``total``-DP.  Returns the per-part
    share (exactly ``total / parts``, so routing existing division sites
    through this helper is bit-identical).
    """
    check_epsilon(total, "total epsilon")
    if parts < 1:
        raise ValueError(f"parts must be at least 1; got {parts}")
    return total / parts


def scale_for_group_privacy(epsilon: float, group_size: int) -> float:
    """Budget for a mechanism that must be ε-DP at group size ``k``.

    Running an ``ε/k``-DP mechanism on data where one individual
    contributes up to ``k`` rows yields ε-DP for the individual (group
    privacy under sequential composition); used by the two-table release
    where the child-table fanout is bounded by ``max_fanout``.
    """
    check_epsilon(epsilon)
    if group_size < 1:
        raise ValueError(f"group_size must be at least 1; got {group_size}")
    return epsilon / group_size


@dataclass
class PrivacyAccountant:
    """Ledger of ε spend under sequential composition.

    Thread-safe: :meth:`spend` holds an internal lock around its
    check-then-append, so concurrent charges (the serving ledger's case —
    many fits racing against one dataset budget) can never jointly
    overdraw the total.  A running ``_spent`` total makes each charge and
    each :attr:`spent` read O(1) instead of an O(ledger) re-sum; the
    incremental ``+=`` accumulates in exactly the append order ``sum()``
    over the ledger would use, so the two always agree bitwise.

    The lock is process-local state: pickling (fork-pool results,
    registry snapshots) drops it and a fresh lock is created on
    unpickling.

    :meth:`spend` is the one way to charge.  The total, every charge and
    every replayed ledger amount must be a finite positive number: a NaN
    would pass every budget comparison and grant everything after it.
    Each is checked as given and then held as a float.

    Parameters
    ----------
    total_epsilon:
        The end-to-end budget.  Charges accumulate; exceeding the total
        (beyond a tiny float tolerance) raises :class:`PrivacyBudgetError`.
    """

    total_epsilon: float
    _ledger: List[Tuple[str, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_epsilon(self.total_epsilon, "total_epsilon")
        self.total_epsilon = float(self.total_epsilon)
        # Seed the running total from any pre-supplied ledger (replay of a
        # persisted ledger) in list order — bit-identical to sum().
        ledger, spent = [], 0.0
        for label, amount in self._ledger:
            check_epsilon(amount, f"replayed charge {label!r}")
            ledger.append((label, float(amount)))
            spent = spent + float(amount)
        self._ledger, self._spent = ledger, spent
        self._lock = threading.Lock()

    def __getstate__(self) -> Dict:
        state = dict(self.__dict__)
        del state["_lock"]  # locks are process-local and unpicklable
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @property
    def spent(self) -> float:
        """Total ε charged so far — O(1), maintained under the spend lock."""
        return self._spent

    @property
    def remaining(self) -> float:
        return self.total_epsilon - self.spent

    @property
    def ledger(self) -> List[Tuple[str, float]]:
        """Copy of the (label, ε) charge history."""
        with self._lock:
            return list(self._ledger)

    def spend(self, label: str, epsilon: float) -> float:
        """Record an ε charge; returns the ε actually granted.

        Raises :class:`ValueError` unless ``epsilon`` is a finite positive
        number, and :class:`PrivacyBudgetError` (a :class:`ValueError`)
        when the charge would overdraw the budget by more than
        floating-point tolerance.  The check and the append happen under
        one lock, so racing spenders are granted at most the total budget
        between them.
        """
        check_epsilon(epsilon, f"charge {label!r}")
        with self._lock:
            if self._spent + epsilon > self.total_epsilon + _TOLERANCE:
                raise PrivacyBudgetError(
                    f"charge {label!r} of ε={epsilon:g} exceeds remaining "
                    f"budget {self.remaining:g} (total ε={self.total_epsilon:g})"
                )
            self._ledger.append((label, float(epsilon)))
            self._spent = self._spent + float(epsilon)
        return float(epsilon)

    def unwind(self, count: int = 1) -> None:
        """Remove the ``count`` most recent charges (transactional rollback).

        For callers that must pair a charge with a second fallible effect
        (the serving ledger persists each grant to disk): when the effect
        fails *before any data was touched under the grant*, unwinding
        restores the ledger so the budget is not burned on a no-op.  Never
        use this after the granted budget paid for a data access — spent ε
        cannot be reclaimed.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        with self._lock:
            if count > len(self._ledger):
                raise ValueError(
                    f"cannot unwind {count} charges; ledger has "
                    f"{len(self._ledger)}"
                )
            del self._ledger[len(self._ledger) - count :]
            # Re-accumulate rather than subtract: float subtraction does
            # not exactly invert addition, and the running total must stay
            # bit-identical to a left-to-right sum of the ledger.
            spent = 0.0
            for _, amount in self._ledger:
                spent = spent + amount
            self._spent = spent

    def split(
        self, fractions: Sequence[float], remainder: bool = False
    ) -> Tuple[float, ...]:
        """Shares of this accountant's *total* budget (no spend recorded)."""
        return split_epsilon(self.total_epsilon, fractions, remainder)
