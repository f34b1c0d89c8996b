"""BudgetLedger escrow/clawback semantics and close/overdraw edge cases."""

import pytest

from repro.economics import BudgetExhausted, BudgetLedger, EscrowError


class TestChargeEdgeCases:
    def test_overdraw_then_closed(self):
        ledger = BudgetLedger(10.0)
        assert ledger.charge(6.0)
        assert not ledger.charge(5.0)  # overdraw: round discarded
        assert ledger.closed
        assert ledger.spent == 6.0  # the overdraw recorded nothing
        assert ledger.rounds_charged == 1

    def test_charge_after_close_raises(self):
        ledger = BudgetLedger(10.0)
        assert not ledger.charge(11.0)
        with pytest.raises(BudgetExhausted):
            ledger.charge(1.0)

    def test_exact_budget_is_not_overdraw(self):
        ledger = BudgetLedger(10.0)
        assert ledger.charge(10.0)
        assert ledger.remaining == 0.0
        assert not ledger.closed

    def test_reset_reopens(self):
        ledger = BudgetLedger(10.0)
        ledger.charge(11.0)
        ledger.reset()
        assert not ledger.closed
        assert ledger.charge(5.0)


class TestEscrow:
    def test_settle_full_delivery_equals_charge(self):
        ledger = BudgetLedger(10.0)
        assert ledger.escrow(4.0)
        assert ledger.pending_escrow == 4.0
        assert ledger.settle(4.0) == 0.0
        assert ledger.spent == 4.0
        assert ledger.round_payments == [4.0]
        assert ledger.clawback_total == 0.0

    def test_settle_claws_back_undelivered_share(self):
        ledger = BudgetLedger(10.0)
        ledger.escrow(6.0)
        clawback = ledger.settle(2.5)
        assert clawback == pytest.approx(3.5)
        assert ledger.spent == pytest.approx(2.5)
        assert ledger.remaining == pytest.approx(7.5)
        assert ledger.round_payments == [pytest.approx(2.5)]
        assert ledger.clawback_total == pytest.approx(3.5)

    def test_settle_nothing_delivered(self):
        ledger = BudgetLedger(10.0)
        ledger.escrow(6.0)
        assert ledger.settle(0.0) == pytest.approx(6.0)
        assert ledger.spent == 0.0

    def test_clawback_never_pushes_spent_negative(self):
        ledger = BudgetLedger(10.0)
        ledger.escrow(10.0)
        ledger.settle(0.0)
        assert ledger.spent == 0.0
        ledger.escrow(3.0)
        ledger.settle(0.0)
        assert ledger.spent >= 0.0
        assert ledger.remaining <= ledger.total

    def test_escrow_overdraw_closes_like_charge(self):
        ledger = BudgetLedger(10.0)
        assert not ledger.escrow(11.0)
        assert ledger.closed
        assert ledger.pending_escrow is None
        with pytest.raises(EscrowError):
            ledger.settle(0.0)
        with pytest.raises(BudgetExhausted):
            ledger.escrow(1.0)

    def test_unsettled_escrow_blocks_new_charges(self):
        ledger = BudgetLedger(10.0)
        ledger.escrow(2.0)
        with pytest.raises(EscrowError):
            ledger.charge(1.0)
        with pytest.raises(EscrowError):
            ledger.escrow(1.0)
        ledger.settle(2.0)
        assert ledger.charge(1.0)

    def test_settle_without_escrow_raises(self):
        ledger = BudgetLedger(10.0)
        with pytest.raises(EscrowError):
            ledger.settle(0.0)
        ledger.charge(2.0)  # plain charge opens no escrow
        with pytest.raises(EscrowError):
            ledger.settle(2.0)

    def test_settle_more_than_escrowed_raises(self):
        ledger = BudgetLedger(10.0)
        ledger.escrow(2.0)
        with pytest.raises(EscrowError):
            ledger.settle(3.0)

    def test_reset_clears_escrow_state(self):
        ledger = BudgetLedger(10.0)
        ledger.escrow(6.0)
        ledger.settle(1.0)
        ledger.escrow(2.0)
        ledger.reset()
        assert ledger.pending_escrow is None
        assert ledger.clawback_total == 0.0
        assert ledger.spent == 0.0
        assert ledger.charge(5.0)


class TestOverdrawAtomicity:
    def test_refused_escrow_records_no_transient_spend(self):
        # A refused escrow must be atomic: nothing may land on the books,
        # not even transiently, or the auditor's B1 (spent <= eta, Eqn 9)
        # could observe an over-spent ledger between escrow and refusal.
        ledger = BudgetLedger(10.0)
        ledger.escrow(4.0)
        ledger.settle(4.0)
        spent_before = ledger.spent
        payments_before = list(ledger.round_payments)
        assert not ledger.escrow(ledger.remaining + 1e-9)
        assert ledger.spent == spent_before
        assert list(ledger.round_payments) == payments_before
        assert ledger.pending_escrow is None

    def test_refused_charge_records_no_transient_spend(self):
        ledger = BudgetLedger(8.0)
        ledger.charge(3.0)
        spent_before = ledger.spent
        assert not ledger.charge(6.0)
        assert ledger.spent == spent_before
        assert ledger.remaining == 8.0 - 3.0
