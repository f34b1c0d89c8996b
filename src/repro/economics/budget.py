"""Budget accounting for the parameter server (the constraint of OP_PS)."""

from __future__ import annotations

from typing import List, Optional

from repro import obs as _obs
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive

_log = get_logger("economics.budget")


class BudgetExhausted(RuntimeError):
    """Raised when a charge is attempted after the ledger closed."""


class EscrowError(RuntimeError):
    """Raised on escrow misuse (double escrow, settle without escrow)."""


class BudgetLedger:
    """Tracks ``η`` across rounds, mirroring Algorithm 1 lines 11 and 17.

    The paper's semantics: the server posts prices, nodes train, payments
    are subtracted, and *if the remaining budget goes negative, the round
    that overdrew is discarded and learning stops immediately*.  ``charge``
    therefore returns ``False`` (and records nothing) for an overdraw, after
    which the ledger is closed.
    """

    def __init__(self, total: float):
        check_positive("total", total)
        self.total = float(total)
        self._spent = 0.0
        self._closed = False
        self._round_payments: List[float] = []
        self._pending_escrow: Optional[float] = None
        self._clawback_total = 0.0

    @property
    def spent(self) -> float:
        return self._spent

    @property
    def remaining(self) -> float:
        return self.total - self._spent

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def rounds_charged(self) -> int:
        return len(self._round_payments)

    @property
    def round_payments(self) -> List[float]:
        return list(self._round_payments)

    @property
    def pending_escrow(self) -> Optional[float]:
        """Amount held in escrow for the in-flight round (None when idle)."""
        return self._pending_escrow

    @property
    def clawback_total(self) -> float:
        """Total refunded across the episode for undelivered work."""
        return self._clawback_total

    def can_afford(self, amount: float) -> bool:
        return not self._closed and amount <= self.remaining

    def charge(self, amount: float) -> bool:
        """Attempt to pay ``amount``; returns whether the round is kept.

        On overdraw the ledger closes and the amount is *not* recorded —
        "all the training information in this round will not be recorded
        and the edge learning must be immediately stopped" (§V-A).
        """
        check_positive("amount", amount, strict=False)
        if self._pending_escrow is not None:
            raise EscrowError("previous escrow not settled; call settle() first")
        if self._closed:
            raise BudgetExhausted(
                "charge() after the budget was exhausted; start a new episode"
            )
        if amount > self.remaining:
            self._closed = True
            if _obs.enabled():
                _obs.counter("budget.overdraws").inc()
            return False
        self._spent += amount
        self._round_payments.append(amount)
        if _obs.enabled():
            _obs.counter("budget.charges").inc()
            _obs.counter("budget.spent").inc(amount)
        return True

    def escrow(self, amount: float) -> bool:
        """Hold ``amount`` for a round whose delivery is not yet known.

        Identical overdraw semantics to :meth:`charge` (an overdraw closes
        the ledger and records nothing), but the held amount stays pending
        until :meth:`settle` reconciles it against delivered work.
        """
        if not self.charge(amount):
            return False
        self._pending_escrow = float(amount)
        return True

    def settle(self, delivered_amount: float) -> float:
        """Reconcile the pending escrow against delivered work.

        The difference (payments promised to nodes that crashed, missed
        the deadline, or were quarantined) is clawed back — refunded to
        the budget so only delivered work counts against ``η``.  Returns
        the clawback amount.  Each escrow settles exactly once: a second
        call without a new escrow raises :class:`EscrowError`.
        """
        if self._pending_escrow is None:
            raise EscrowError("settle() without a pending escrow")
        check_positive("delivered_amount", delivered_amount, strict=False)
        pending = self._pending_escrow
        if delivered_amount > pending + 1e-9:
            raise EscrowError(
                f"delivered amount {delivered_amount} exceeds escrowed "
                f"{pending}"
            )
        clawback = max(0.0, pending - float(delivered_amount))
        # Clamp: a refund can never push cumulative spend negative.
        clawback = min(clawback, self._spent)
        self._spent -= clawback
        self._round_payments[-1] = pending - clawback
        self._clawback_total += clawback
        self._pending_escrow = None
        if clawback > 0.0:
            _log.debug(
                "escrow settle: clawed back %.4f of %.4f escrowed",
                clawback,
                pending,
            )
            if _obs.enabled():
                _obs.counter("budget.clawback").inc(clawback)
        return clawback

    def reset(self) -> None:
        """Reopen the ledger with the full budget (new episode)."""
        self._spent = 0.0
        self._closed = False
        self._round_payments.clear()
        self._pending_escrow = None
        self._clawback_total = 0.0
