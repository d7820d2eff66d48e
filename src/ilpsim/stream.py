"""Packetizing money transport: splits a payment into condition-bearing
Prepares under a shared secret, sends them one at a time (one packet in
flight), halves the packet size on F08 and gives up after a budget of
consecutive rejects, and reassembles the delivered total at the receiver.

The fulfillment for a packet is HMAC-SHA256(secret, data field); the
condition is its SHA-256. The receiver recomputes it statelessly from the
received packet. Only the data field is covered: connectors legitimately
rewrite amount (currency conversion) and expiry (per-hop decrement) in
flight, while the data rides through untouched.

The data field is version(1) || sequence(4 BE) || 0x00, so each packet's
condition differs.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets as _secrets
import threading
from dataclasses import asdict, dataclass
from datetime import timedelta
from random import Random
from typing import Callable, Optional

from . import ilp
from .clock import SimClock
from .events import EventLog, NULL_LOG

FRAME_VERSION = 1
DEFAULT_RETRY_BUDGET = 10
PACKET_LIFETIME = timedelta(seconds=30)


class PaymentError(Exception):
    def __init__(self, message: str, report: "SendReport | None" = None):
        super().__init__(message)
        self.report = report


class Unreachable(PaymentError):
    pass


class Expired(PaymentError):
    pass


@dataclass(frozen=True)
class StreamCredentials:
    destination_account: ilp.IlpAddress
    shared_secret: bytes

    def __post_init__(self):
        if len(self.shared_secret) != 32:
            raise ValueError("shared secret must be 32 bytes")


def packet_condition(secret: bytes, packet_contents: bytes) -> tuple[bytes, bytes]:
    fulfillment = hmac.new(secret, packet_contents, hashlib.sha256).digest()
    return fulfillment, ilp.condition_from_fulfillment(fulfillment)


def packet_data(sequence: int) -> bytes:
    """The data field of the packet numbered `sequence`."""
    return bytes([FRAME_VERSION]) + sequence.to_bytes(4, "big") + b"\x00"


class StreamServer:
    """Receiver side: issues credentials, verifies and fulfills incoming
    Prepares, accumulates delivered totals per connection token."""

    def __init__(
        self,
        base_address: Optional[ilp.IlpAddress] = None,
        rng: Optional[Random] = None,
        component: str = "stream-server",
        event_log: EventLog = NULL_LOG,
    ):
        self.base_address = base_address
        self._rng = rng
        self._registry: dict[str, dict] = {}
        self._lock = threading.Lock()
        self.component = component
        self.events = event_log
        self.total_received = 0

    def _random_token(self) -> str:
        if self._rng is not None:
            return "".join(
                self._rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-")
                for _ in range(22)
            )
        return _secrets.token_urlsafe(16).replace("=", "")

    def _random_secret(self) -> bytes:
        if self._rng is not None:
            return self._rng.randbytes(32)
        return _secrets.token_bytes(32)

    def generate_credentials(self) -> StreamCredentials:
        if self.base_address is None:
            raise RuntimeError("server has no uplink address yet")
        with self._lock:
            while True:
                token = self._random_token()
                if token not in self._registry:
                    break
            secret = self._random_secret()
            self._registry[token] = {"secret": secret, "received": 0, "seen": set()}
        return StreamCredentials(self.base_address.with_suffix(token), secret)

    def secret_for(self, token: str) -> Optional[bytes]:
        with self._lock:
            record = self._registry.get(token)
            return record["secret"] if record else None

    def received_for(self, token: str) -> int:
        with self._lock:
            record = self._registry.get(token)
            return record["received"] if record else 0

    def handle_prepare(self, prepare: ilp.PreparePacket) -> ilp.FulfillPacket | ilp.RejectPacket:
        token = self._extract_token(prepare.destination)
        with self._lock:
            record = self._registry.get(token) if token else None
        if record is None:
            return ilp.RejectPacket(
                code=ilp.F06_UNEXPECTED_PAYMENT,
                triggered_by=self.base_address,
                message="unexpected payment",
            )
        fulfillment, condition = packet_condition(record["secret"], prepare.data)
        if condition != prepare.condition:
            self.events.emit(
                self.component, "condition_mismatch", condition=prepare.condition.hex()
            )
            return ilp.RejectPacket(
                code=ilp.F05_WRONG_CONDITION,
                triggered_by=self.base_address,
                message="condition does not match",
            )
        with self._lock:
            first_delivery = condition not in record["seen"]
            if first_delivery:
                record["seen"].add(condition)
                record["received"] += prepare.amount
                self.total_received += prepare.amount
        if first_delivery:
            self.events.emit(
                self.component, "receiver_credited", amount=prepare.amount,
                condition=prepare.condition.hex(), matched=True,
            )
        return ilp.FulfillPacket(
            fulfillment=fulfillment, data=prepare.amount.to_bytes(8, "big")
        )

    def _extract_token(self, destination: ilp.IlpAddress) -> Optional[str]:
        base = self.base_address
        if base is None or not destination.startswith(base + "."):
            return None
        return destination[len(base) + 1 :].partition(".")[0]


@dataclass
class SendReport:
    source_sent: int = 0
    delivered_estimate: int = 0
    packets_fulfilled: int = 0
    packets_rejected: int = 0

    def to_json(self) -> dict:
        return asdict(self)


class StreamSender:
    """Client side of one connection. Owned by a single driver thread."""

    def __init__(
        self,
        send_fn: Callable[[ilp.PreparePacket, float], ilp.FulfillPacket | ilp.RejectPacket],
        credentials: StreamCredentials,
        clock: Optional[SimClock] = None,
        packet_timeout: float = 5.0,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
    ):
        self.send_fn = send_fn
        self.credentials = credentials
        self.clock = clock or SimClock()
        self.packet_timeout = packet_timeout
        self.retry_budget = retry_budget
        self.state = "open"
        self._sequence = 0

    def send_money(self, total_source_amount: int, max_packet_amount: int) -> SendReport:
        if self.state != "open":
            raise PaymentError(f"connection is {self.state}")
        if max_packet_amount < 1:
            raise ValueError("max_packet_amount must be >= 1")
        report = SendReport()
        packet_size = max_packet_amount
        consecutive_failures = 0
        remaining = total_source_amount
        while remaining > 0:
            amount = min(packet_size, remaining)
            response = self._send_one(amount)
            if isinstance(response, ilp.FulfillPacket):
                remaining -= amount
                report.source_sent += amount
                report.packets_fulfilled += 1
                if len(response.data) >= 8:
                    report.delivered_estimate += int.from_bytes(response.data[:8], "big")
                consecutive_failures = 0
            else:
                report.packets_rejected += 1
                consecutive_failures += 1
                if response.code == ilp.F08_AMOUNT_TOO_LARGE:
                    packet_size = max(1, packet_size // 2)
                if consecutive_failures >= self.retry_budget:
                    self.state = "closed"
                    if response.code == ilp.F02_UNREACHABLE:
                        raise Unreachable(f"persistent {response.code}: {response.message}", report)
                    if response.code == ilp.R00_TRANSFER_TIMED_OUT:
                        raise Expired(f"retry budget exhausted on {response.code}", report)
                    raise PaymentError(
                        f"payment failed with {response.code}: {response.message}", report
                    )
        self.state = "closed"
        return report

    def _send_one(self, amount: int) -> ilp.FulfillPacket | ilp.RejectPacket:
        sequence = self._sequence
        self._sequence += 1
        data = packet_data(sequence)
        expires_at = self.clock.now() + PACKET_LIFETIME
        _fulfillment, condition = packet_condition(self.credentials.shared_secret, data)
        prepare = ilp.PreparePacket(
            destination=self.credentials.destination_account,
            amount=amount,
            condition=condition,
            expires_at=expires_at,
            data=data,
        )
        response = self.send_fn(prepare, self.packet_timeout)
        if isinstance(response, ilp.FulfillPacket) and not ilp.verify_fulfillment(
            response.fulfillment, condition
        ):
            return ilp.RejectPacket(
                code=ilp.F05_WRONG_CONDITION,
                triggered_by=self.credentials.destination_account,
                message="upstream returned a bad fulfillment",
            )
        return response
