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

# Reads the current escrow of the outgoing channel (a ledger call).
ChannelSize = Callable[[], int]


class ChannelExhausted(Exception):
    """The next settlement claim would exceed the channel size; settlement
    is deferred until the channel is topped up."""


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
    return (-a.settle_threshold < b.maximum) and (-b.settle_threshold < a.maximum)


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
        self.settlement_deferred = False
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
        self, amount: int, channel_size: Optional[ChannelSize] = None
    ) -> Optional[int]:
        """Record that we now owe the peer `amount` more. If the balance
        crossed the settle threshold, return the cumulative claim amount to
        sign (balance is reset to settle_to); otherwise None.

        `channel_size` reads the outgoing channel's escrow. It is called at
        most once, and only when a claim is due; a claim beyond the escrow
        defers settlement. Without it the escrow is not checked."""
        with self._lock:
            self.value -= amount
            if self.value > self.policy.settle_threshold:
                return None
            if self.outgoing_channel is None:
                self.settlement_deferred = True
                return None
            return self._claim_to_settle_to(channel_size)

    def force_settle(self, channel_size: Optional[ChannelSize] = None) -> Optional[int]:
        """Settle the full outstanding debt regardless of the threshold
        (used at teardown or on explicit request)."""
        with self._lock:
            if self.value >= self.policy.settle_to or self.outgoing_channel is None:
                return None
            return self._claim_to_settle_to(channel_size)

    def retry_deferred_settlement(
        self, channel_size: Optional[ChannelSize] = None
    ) -> Optional[int]:
        """After a channel top-up, re-run the settlement check."""
        with self._lock:
            if not self.settlement_deferred:
                return None
            return self.on_outgoing_fulfilled(0, channel_size)

    def _claim_to_settle_to(self, channel_size: Optional[ChannelSize]) -> Optional[int]:
        # Caller holds the lock and has checked that a claim is due.
        cumulative = self.highest_signed_cumulative + (self.policy.settle_to - self.value)
        if channel_size is not None and cumulative > channel_size():
            self.settlement_deferred = True
            return None
        self.highest_signed_cumulative = cumulative
        self.value = self.policy.settle_to
        self.settlement_deferred = False
        return cumulative

    def receive_claim(self, claim: lg.Claim, ledger: lg.Ledger) -> int:
        """Apply a settlement claim from the peer: the peer's debt to us
        shrinks by the new cumulative delta, and the claim is redeemed on the
        ledger at once. Returns the delta."""
        with self._lock:
            if claim.channel_id != self.incoming_channel:
                raise lg.InvalidClaim(f"claim on unexpected channel {claim.channel_id}")
            if not ledger.verify_claim(claim):
                raise lg.InvalidClaim(claim.channel_id)
            delta = claim.cumulative_amount - self.last_seen_incoming_cumulative
            if delta < 0:
                raise lg.InvalidClaim("claim cumulative went backwards")
            self.last_seen_incoming_cumulative = claim.cumulative_amount
            self.value -= delta
        if delta > 0:
            try:
                ledger.redeem_claim(claim)
            except lg.StaleClaim:
                pass
        return delta
