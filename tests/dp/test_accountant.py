"""Privacy accountant: sequential composition bookkeeping."""

import pytest

from repro.dp.accountant import (
    PrivacyAccountant,
    PrivacyBudgetError,
    scale_for_group_privacy,
    split_epsilon,
    split_epsilon_even,
)

#: ε values no budget may hold: NaN passes every sign check.
BAD_EPSILONS = [float("nan"), float("inf"), -float("inf"), 0.0, -1.0]


class TestAccountant:
    def test_charges_accumulate(self):
        acc = PrivacyAccountant(1.0)
        acc.spend("a", 0.3)
        acc.spend("b", 0.2)
        assert acc.spent == pytest.approx(0.5)
        assert acc.remaining == pytest.approx(0.5)

    def test_overspend_rejected(self):
        acc = PrivacyAccountant(1.0)
        acc.spend("a", 0.9)
        with pytest.raises(PrivacyBudgetError, match="exceeds remaining"):
            acc.spend("b", 0.2)

    def test_overspend_leaves_ledger_unchanged(self):
        acc = PrivacyAccountant(1.0)
        acc.spend("a", 0.9)
        try:
            acc.spend("b", 0.2)
        except PrivacyBudgetError:
            pass
        assert acc.spent == pytest.approx(0.9)
        assert len(acc.ledger) == 1

    def test_exact_spend_allowed(self):
        acc = PrivacyAccountant(1.0)
        for _ in range(10):
            acc.spend("x", 0.1)
        assert acc.remaining == pytest.approx(0.0, abs=1e-9)

    def test_float_tolerance(self):
        # 7 charges of 1/7 must not trip on rounding.
        acc = PrivacyAccountant(1.0)
        for _ in range(7):
            acc.spend("x", 1.0 / 7.0)

    def test_nonpositive_total_rejected(self):
        with pytest.raises(ValueError):
            PrivacyAccountant(0.0)

    def test_nonpositive_charge_rejected(self):
        acc = PrivacyAccountant(1.0)
        with pytest.raises(ValueError):
            acc.spend("x", 0.0)

    def test_ledger_records_labels(self):
        acc = PrivacyAccountant(1.0)
        acc.spend("network", 0.3)
        acc.spend("marginal[a]", 0.35)
        labels = [label for label, _ in acc.ledger]
        assert labels == ["network", "marginal[a]"]

    def test_spend_returns_the_granted_epsilon(self):
        acc = PrivacyAccountant(1.0)
        granted = acc.spend("a", 0.25)
        assert granted == 0.25
        acc.spend("b", 0.25)
        assert acc.spent == pytest.approx(0.5)

    @pytest.mark.parametrize("epsilon", BAD_EPSILONS)
    def test_non_finite_spend_refused_and_ledger_unchanged(self, epsilon):
        """A NaN fails every budget comparison, so a sign check alone
        would grant it and every later charge; ±inf are no budget."""
        acc = PrivacyAccountant(1.0)
        acc.spend("a", 0.5)
        with pytest.raises(ValueError, match=r"charge 'bad' must be a finite"):
            acc.spend("bad", epsilon)
        assert acc.ledger == [("a", 0.5)] and acc.spent == 0.5
        acc.spend("b", 0.5)
        with pytest.raises(PrivacyBudgetError):
            acc.spend("c", 5.0)

    @pytest.mark.parametrize("total", BAD_EPSILONS)
    def test_non_finite_total_refused(self, total):
        with pytest.raises(ValueError, match="total_epsilon must be a finite"):
            PrivacyAccountant(total)

    @pytest.mark.parametrize("amount", BAD_EPSILONS)
    def test_non_finite_replayed_charge_refused(self, amount):
        with pytest.raises(ValueError, match="replayed charge 'x'"):
            PrivacyAccountant(1.0, [("ok", 0.25), ("x", amount)])

    def test_overspend_is_a_value_error(self):
        acc = PrivacyAccountant(1.0)
        acc.spend("a", 0.9)
        with pytest.raises(ValueError):
            acc.spend("b", 0.2)
        # ... and still a RuntimeError for historical handlers.
        with pytest.raises(RuntimeError):
            acc.spend("b", 0.2)

    def test_exact_boundary_spend_then_any_more_raises(self):
        acc = PrivacyAccountant(2.0)
        acc.spend("all", 2.0)
        assert acc.remaining == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(PrivacyBudgetError):
            acc.spend("extra", 1e-6)

    def test_split_method_matches_module_function(self):
        acc = PrivacyAccountant(1.7)
        assert acc.split((0.3,), remainder=True) == split_epsilon(
            1.7, (0.3,), remainder=True
        )
        # split() only computes shares; nothing is recorded.
        assert acc.spent == 0.0


class TestSplitEpsilon:
    def test_beta_remainder_split_is_bit_identical_to_inline_form(self):
        # PrivBayes' historical split: epsilon1 = beta*eps; epsilon2 = eps - epsilon1.
        for eps in (0.1, 0.8, 1.0, 1.6, 3.2, 10.0):
            for beta in (0.1, 0.3, 0.5, 0.85):
                e1, e2 = split_epsilon(eps, (beta,), remainder=True)
                assert e1 == beta * eps
                assert e2 == eps - beta * eps

    def test_explicit_fractions_split(self):
        shares = split_epsilon(2.0, (0.25, 0.25, 0.5))
        assert shares == (0.5, 0.5, 1.0)

    def test_fractions_summing_past_one_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            split_epsilon(1.0, (0.7, 0.7))

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            split_epsilon(0.0, (0.5,))
        with pytest.raises(ValueError):
            split_epsilon(1.0, (-0.1,))
        with pytest.raises(ValueError):
            split_epsilon(1.0, ())

    def test_full_fraction_leaves_no_remainder(self):
        with pytest.raises(ValueError, match="remainder"):
            split_epsilon(1.0, (1.0,), remainder=True)

    def test_even_split_is_exact_division(self):
        for eps in (0.5, 1.0, 1.6):
            for parts in (1, 2, 4, 7):
                assert split_epsilon_even(eps, parts) == eps / parts

    def test_even_split_validation(self):
        with pytest.raises(ValueError):
            split_epsilon_even(-1.0, 2)
        with pytest.raises(ValueError):
            split_epsilon_even(1.0, 0)

    @pytest.mark.parametrize("total", BAD_EPSILONS)
    def test_non_finite_total_refused(self, total):
        with pytest.raises(ValueError, match="total epsilon must be a finite"):
            split_epsilon(total, (0.5,))
        with pytest.raises(ValueError, match="total epsilon must be a finite"):
            split_epsilon_even(total, 3)


class TestGroupPrivacy:
    def test_scale_divides_by_group_size(self):
        assert scale_for_group_privacy(1.6, 4) == 1.6 / 4
        assert scale_for_group_privacy(0.8, 1) == 0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            scale_for_group_privacy(0.0, 3)
        with pytest.raises(ValueError):
            scale_for_group_privacy(1.0, 0)


class TestThreadSafety:
    def test_sixteen_threads_never_overgrant(self):
        """The concurrent-overdraw race: grants must sum to <= the budget.

        The historical spend was an unsynchronized check-then-append; 16
        threads racing could each pass the check before any append landed
        and jointly overdraw.  With the lock, at most budget/charge
        charges are granted in total and every loser raises
        PrivacyBudgetError.
        """
        import threading

        acc = PrivacyAccountant(1.0)
        barrier = threading.Barrier(16)
        granted, refused = [], []
        lock = threading.Lock()

        def racer():
            barrier.wait()
            for _ in range(4):  # 16 threads x 4 x 0.125 = 8.0 attempted
                try:
                    amount = acc.spend("race", 0.125)
                except PrivacyBudgetError:
                    with lock:
                        refused.append(1)
                else:
                    with lock:
                        granted.append(amount)

        threads = [threading.Thread(target=racer) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(granted) <= 1.0 + 1e-9
        assert len(granted) == 8  # exactly budget / charge
        assert len(refused) == 16 * 4 - 8
        # remaining stays consistent with the grants actually made.
        assert acc.spent == pytest.approx(sum(granted))
        assert acc.remaining == pytest.approx(1.0 - sum(granted))
        assert len(acc.ledger) == len(granted)

    def test_spent_is_running_total_not_resum(self):
        """spent tracks the ledger exactly (incremental == left-to-right sum)."""
        acc = PrivacyAccountant(1.0)
        for _ in range(7):
            acc.spend("x", 1.0 / 7.0)
        assert acc.spent == sum(amount for _, amount in acc.ledger)

    def test_pickle_roundtrip_recreates_lock(self):
        import pickle

        acc = PrivacyAccountant(1.0)
        acc.spend("a", 0.25)
        clone = pickle.loads(pickle.dumps(acc))
        assert clone.total_epsilon == 1.0
        assert clone.spent == acc.spent
        assert clone.ledger == acc.ledger
        clone.spend("b", 0.5)  # the restored lock works
        assert clone.remaining == pytest.approx(0.25)

    def test_prefilled_ledger_seeds_running_total(self):
        acc = PrivacyAccountant(1.0, [("replayed", 0.3), ("replayed", 0.2)])
        assert acc.spent == pytest.approx(0.5)
        with pytest.raises(PrivacyBudgetError):
            acc.spend("over", 0.6)


class TestUnwind:
    def test_unwind_restores_budget(self):
        acc = PrivacyAccountant(1.0)
        acc.spend("keep", 0.3)
        acc.spend("rollback", 0.5)
        acc.unwind()
        assert acc.spent == pytest.approx(0.3)
        assert [label for label, _ in acc.ledger] == ["keep"]
        acc.spend("again", 0.7)  # the unwound ε is spendable again

    def test_unwind_matches_resum_bitwise(self):
        acc = PrivacyAccountant(1.0)
        for _ in range(7):
            acc.spend("x", 1.0 / 7.0)
        acc.unwind(2)
        assert acc.spent == sum(amount for _, amount in acc.ledger)

    def test_unwind_validation(self):
        acc = PrivacyAccountant(1.0)
        acc.spend("a", 0.1)
        with pytest.raises(ValueError, match="cannot unwind"):
            acc.unwind(2)
        with pytest.raises(ValueError):
            acc.unwind(-1)
