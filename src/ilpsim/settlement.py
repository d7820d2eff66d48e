"""Bilateral balance tracking with the maximum / settleThreshold / settleTo
policy, driving automatic claim signing on the peer payment channel.

Sign convention: negative value means "I owe the peer". The incoming side
adjusts at Prepare time (risk accounting, rolled back on reject/expiry);
the outgoing side adjusts at Fulfill time.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from . import ledger as lg

log = logging.getLogger(__name__)

# Called with the cumulative amount of a claim that is due: makes the
# outgoing channel's escrow cover it (ledger calls) and returns whether it does.
Escrow = Callable[[int], bool]


@dataclass(frozen=True)
class BalancePolicy:
    maximum: int
    settle_threshold: int
    settle_to: int

    def __post_init__(self):
        if not self.settle_threshold <= self.settle_to <= self.maximum:
            raise ValueError(
                "policy must satisfy settle_threshold <= settle_to <= maximum"
            )


def policy_from_config(cfg: dict) -> BalancePolicy:
    """Read a policy from the usual config keys. A positive settleThreshold
    is normalized by negation (both spellings exist in the wild)."""
    threshold = int(cfg.get("settleThreshold", 0))
    if threshold > 0:
        log.warning(
            "settleThreshold %d is positive; normalizing to %d", threshold, -threshold
        )
        threshold = -threshold
    return BalancePolicy(
        maximum=int(cfg.get("maximum", 0)),
        settle_threshold=threshold,
        settle_to=int(cfg.get("settleTo", 0)),
    )


def check_peering_compat(a: BalancePolicy, b: BalancePolicy) -> bool:
    """Each side reaches its settle threshold, after at least one unit, before
    it owes more than the other side's maximum."""
    return max(1, -a.settle_threshold) <= b.maximum and max(1, -b.settle_threshold) <= a.maximum


class BilateralBalance:
    """Running account with one peer. All mutations are serialized."""

    def __init__(self, peer_id: str, policy: BalancePolicy):
        self.peer_id = peer_id
        self.policy = policy
        self.value = 0
        self.outgoing_channel: Optional[str] = None
        self.incoming_channel: Optional[str] = None
        self.highest_signed_cumulative = 0
        self.last_seen_incoming_cumulative = 0
        self._lock = threading.RLock()

    def on_incoming_prepare(self, amount: int) -> bool:
        """Accept iff the peer's debt to us would stay within maximum."""
        with self._lock:
            if self.value + amount > self.policy.maximum:
                return False
            self.value += amount
            return True

    def rollback_incoming(self, amount: int) -> None:
        with self._lock:
            self.value -= amount

    def on_outgoing_fulfilled(
        self, amount: int, escrow: Optional[Escrow] = None
    ) -> Optional[int]:
        """Record that we now owe the peer `amount` more. If the balance is
        at or past the settle threshold, return the cumulative claim amount
        to sign (balance is reset to settle_to); otherwise None.

        `escrow` is called at most once, and only when a claim is due; if it
        returns False, or there is no outgoing channel, no claim is made and
        a later call tries again. Without it the escrow is not checked."""
        with self._lock:
            self.value -= amount
            if self.value > self.policy.settle_threshold:
                return None
            return self._claim_to_settle_to(escrow)

    def force_settle(self, escrow: Optional[Escrow] = None) -> Optional[int]:
        """Settle the full outstanding debt regardless of the threshold
        (used at teardown or on explicit request)."""
        with self._lock:
            if self.value >= self.policy.settle_to:
                return None
            return self._claim_to_settle_to(escrow)

    def _claim_to_settle_to(self, escrow: Optional[Escrow]) -> Optional[int]:
        # Caller holds the lock and has checked that a claim is due.
        if self.outgoing_channel is None:
            return None
        cumulative = self.highest_signed_cumulative + (self.policy.settle_to - self.value)
        if escrow is not None and not escrow(cumulative):
            return None
        self.highest_signed_cumulative = cumulative
        self.value = self.policy.settle_to
        return cumulative

    def receive_claim(self, claim: lg.Claim, ledger: lg.Ledger) -> int:
        """Apply a settlement claim from the peer; return the new cumulative
        delta. The ledger's redeem is the one verify of a claim that raises
        the cumulative (any other is only verified), and the balance moves
        only after the ledger has accepted the claim."""
        with self._lock:
            if claim.channel_id != self.incoming_channel:
                raise lg.InvalidClaim(f"claim on unexpected channel {claim.channel_id}")
            delta = claim.cumulative_amount - self.last_seen_incoming_cumulative
            if delta > 0:
                try:
                    ledger.redeem_claim(claim)
                except lg.StaleClaim:
                    pass
            elif not ledger.verify_claim(claim):
                raise lg.InvalidClaim(claim.channel_id)
            elif delta < 0:
                raise lg.InvalidClaim("claim cumulative went backwards")
            self.last_seen_incoming_cumulative = claim.cumulative_amount
            self.value -= delta
        return delta
