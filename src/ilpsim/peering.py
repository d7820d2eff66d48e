"""Money machinery shared by connectors and uplink nodes for one direct peer:
channel announcements, automatic settlement claims, and claim receipt; the
one table that answers the sub-protocol entries of inbound BTP Messages; and
the one outbound path: `request_entry` sends an entry and returns the data of
the reply entry of the same name, and `send_prepare` sends an ILP Prepare and
returns its Fulfill or Reject, turning link failures into Rejects.

Each receiving side registers a handler per entry name (see `dispatch`).
Entries, and who answers them:

    "ilp"             octets  an ILP Prepare; answered with its Fulfill or
                              Reject by every Peer (connector: the packet
                              pipeline; uplink: delivery to the local app or
                              stream server), by the uplink's local-app port
                              (sends it on to the parent) and by a LocalApp
                              registered as sink (its stream server). A
                              Fulfill or Reject is refused with F00.
    "ildcp"           JSON    address and asset query; the connector for a
                              child, the local-app port for a local app
    "channel"         JSON    payer announces a freshly opened outgoing
                              channel; every Peer (the connector also checks
                              minIncomingChannelAmount and opens its own
                              channel back)
    "claim"           JSON    signed cumulative settlement claim; every Peer
    "ledger_identity" JSON    asks for the answerer's ledger account; every
                              Peer
    "listen"          JSON    a local app registers as the node's packet
                              sink; the local-app port

Any other name is ignored. The "auth" entry is handled by `link`.
"""

from __future__ import annotations

import json
import logging
import threading
from typing import Callable, Optional

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from . import btp, ilp, ledger as lg, link, wire
from .events import EventLog, NULL_LOG
from .settlement import BilateralBalance

log = logging.getLogger(__name__)

DEFAULT_SETTLE_DELAY = 3600


def json_entry(name: str, payload: dict) -> btp.ProtocolEntry:
    return btp.ProtocolEntry(name, btp.CONTENT_STRUCTURED, json.dumps(payload).encode())


def ilp_entry(packet_bytes: bytes) -> btp.ProtocolEntry:
    return btp.ProtocolEntry("ilp", btp.CONTENT_OCTET_STREAM, packet_bytes)


def ildcp_entry(address: ilp.IlpAddress, asset_code: str, asset_scale: int) -> btp.ProtocolEntry:
    return json_entry(
        "ildcp",
        {"ilp_address": str(address), "asset_code": asset_code, "asset_scale": asset_scale},
    )


# Takes an entry's data; returns the reply entry, or None for no reply.
EntryHandler = Callable[[bytes], Optional[btp.ProtocolEntry]]
PrepareHandler = Callable[[ilp.PreparePacket], ilp.IlpPacket]


def dispatch(table: dict[str, EntryHandler], entries) -> list[btp.ProtocolEntry]:
    """Answer an inbound Message: each entry goes to the handler registered
    under its name, and the replies form the Response."""
    out: list[btp.ProtocolEntry] = []
    for entry in entries:
        handler = table.get(entry.name)
        if handler is None:
            log.debug("ignoring sub-protocol %r", entry.name)
            continue
        reply = handler(entry.data)
        if reply is not None:
            out.append(reply)
    return out


def request_entry(endpoint: link.LinkEndpoint, entry: btp.ProtocolEntry, timeout: float) -> bytes:
    """Send one entry and return the data of the reply entry with the same
    name; raises LinkError if the reply has none."""
    for reply in endpoint.request([entry], timeout=timeout):
        if reply.name == entry.name:
            return reply.data
    raise link.LinkError(f"reply carried no {entry.name!r} entry")


def send_prepare(
    endpoint: link.LinkEndpoint,
    prepare: ilp.PreparePacket,
    timeout: float,
    triggered_by: ilp.IlpAddress,
) -> ilp.FulfillPacket | ilp.RejectPacket:
    """Send a Prepare and return its Fulfill or Reject. A timeout becomes an
    R00 Reject; any other link failure, or an answer that is a Prepare or no
    ILP packet at all, a T00 Reject triggered by `triggered_by`."""
    try:
        data = request_entry(endpoint, ilp_entry(ilp.encode_packet(prepare)), timeout)
        packet = ilp.decode_packet(data)
    except link.Timeout as exc:
        code, message = ilp.R00_TRANSFER_TIMED_OUT, f"timed out: {exc}"
    except link.LinkError as exc:
        code, message = ilp.T00_INTERNAL_ERROR, f"link error: {exc}"
    except wire.CodecError as exc:
        code, message = ilp.T00_INTERNAL_ERROR, f"undecodable answer: {exc}"
    else:
        if not isinstance(packet, ilp.PreparePacket):
            return packet
        code, message = ilp.T00_INTERNAL_ERROR, "answered with a Prepare"
    return ilp.RejectPacket(code=code, triggered_by=triggered_by, message=message)


def message_handler(table: dict[str, EntryHandler]) -> link.MessageHandler:
    return lambda _endpoint, entries: dispatch(table, entries)


def ilp_handler(handle_prepare: PrepareHandler) -> EntryHandler:
    """The "ilp" entry: decode, refuse anything but a Prepare, encode the
    reply. handle_prepare should look its method up at call time."""

    def handle(data: bytes) -> btp.ProtocolEntry:
        packet = ilp.decode_packet(data)
        if not isinstance(packet, ilp.PreparePacket):
            raise link.BtpErrorResponse("F00", "only Prepare may initiate an exchange")
        return ilp_entry(ilp.encode_packet(handle_prepare(packet)))

    return handle


class Peer:
    """One direct peering: bilateral balance plus the payment channels in
    both directions on a shared ledger."""

    def __init__(
        self,
        peer_id: str,
        balance: BilateralBalance,
        ledger: lg.Ledger,
        own_ledger_account: str,
        signing_key: Ed25519PrivateKey,
        component: str = "",
        event_log: EventLog = NULL_LOG,
    ):
        self.peer_id = peer_id
        self.balance = balance
        self.ledger = ledger
        self.own_ledger_account = own_ledger_account
        self.signing_key = signing_key
        self.endpoint: Optional[link.LinkEndpoint] = None
        self.peer_ledger_account: Optional[str] = None
        self.component = component or peer_id
        self.events = event_log
        self._settle_lock = threading.Lock()

    def attach(
        self, endpoint: link.LinkEndpoint, handle_prepare: PrepareHandler, **entries: EntryHandler
    ) -> None:
        """Make endpoint the link to this peer and answer its entries: "ilp"
        through handle_prepare, plus "channel", "claim" and "ledger_identity";
        `entries` adds or replaces handlers by name.
        Handlers look methods up per call, so patched methods take effect."""
        table: dict[str, EntryHandler] = {
            "ilp": ilp_handler(handle_prepare),
            "channel": lambda data: self.handle_channel_entry(data),
            "claim": lambda data: self.handle_claim_entry(data),
            "ledger_identity": lambda _data: json_entry(
                "ledger_identity", {"account": self.own_ledger_account}
            ),
            **entries,
        }
        self.endpoint = endpoint
        endpoint.handler = message_handler(table)

    # -- channels

    def open_channel(self, amount: int, settle_delay: int, timeout: float = 5.0) -> None:
        """Open the outgoing channel and announce it, first asking the peer
        for its ledger account if it has not given it."""
        if self.peer_ledger_account is None:
            data = request_entry(self.endpoint, json_entry("ledger_identity", {}), timeout)
            self.peer_ledger_account = json.loads(data)["account"]
        channel = self.open_outgoing_channel(amount, settle_delay)
        announce = {
            "channel_id": channel.channel_id,
            "owner_account": self.own_ledger_account,
            "asset_code": self.ledger.config.asset_code,
        }
        self.endpoint.request([json_entry("channel", announce)], timeout=timeout)

    def open_outgoing_channel(self, amount: int, settle_delay: int = DEFAULT_SETTLE_DELAY):
        if self.peer_ledger_account is None:
            raise lg.LedgerError(f"peer {self.peer_id} has not identified its ledger account")
        pub = self.signing_key.public_key().public_bytes_raw()
        channel = self.ledger.open_channel(
            self.own_ledger_account, self.peer_ledger_account, amount, settle_delay, pub
        )
        self.balance.outgoing_channel = channel.channel_id
        return channel

    def handle_channel_entry(self, data: bytes) -> None:
        info = json.loads(data)
        channel = self.ledger.get_channel(info["channel_id"])
        if channel.destination != self.own_ledger_account:
            raise link.BtpErrorResponse("F00", "channel does not pay this peer")
        self.balance.incoming_channel = channel.channel_id
        self.peer_ledger_account = info.get("owner_account", channel.account)
        self.events.emit(self.component, "channel_in", peer=self.peer_id, channel=channel.channel_id)

    # -- settlement

    def settle(self, cumulative: int, timeout: float = 5.0) -> None:
        """Sign and deliver a claim at the given cumulative amount."""
        claim = lg.sign_claim(self.signing_key, self.balance.outgoing_channel, cumulative)
        entry = json_entry(
            "claim",
            {
                "channel_id": claim.channel_id,
                "cumulative_amount": claim.cumulative_amount,
                "signature": claim.signature.hex(),
            },
        )
        self.events.emit(
            self.component, "settlement_claim", peer=self.peer_id, cumulative=cumulative
        )
        try:
            self.endpoint.request([entry], timeout=timeout)
        except link.LinkError as exc:
            # The claim is already signed and counted; delivery failure only
            # delays the peer's bookkeeping, never loses ledger value.
            log.warning("claim delivery to %s failed: %s", self.peer_id, exc)

    def record_fulfilled(self, amount: int, settle_timeout: float = 5.0) -> None:
        """Outgoing-side bookkeeping after a verified fulfill; settles (and
        tops up the channel first if it is too small) when the threshold is
        crossed. The ledger is asked for the channel size only then."""
        with self._settle_lock:
            cumulative = self.balance.on_outgoing_fulfilled(
                amount, channel_size=self._outgoing_channel_size
            )
            if cumulative is None and self.balance.settlement_deferred and self._top_up():
                cumulative = self.balance.retry_deferred_settlement(self._outgoing_channel_size)
        if cumulative is not None:
            self.settle(cumulative, timeout=settle_timeout)

    def settle_now(self, timeout: float = 5.0) -> Optional[int]:
        """Immediately settle whatever is owed, topping up the channel first
        if the claim would exceed its escrow."""
        with self._settle_lock:
            cumulative = self.balance.force_settle(channel_size=self._outgoing_channel_size)
            if cumulative is None and self.balance.settlement_deferred and self._top_up():
                cumulative = self.balance.force_settle(channel_size=self._outgoing_channel_size)
        if cumulative is not None:
            self.settle(cumulative, timeout=timeout)
        return cumulative

    def _outgoing_channel_size(self) -> int:
        return self.ledger.get_channel(self.balance.outgoing_channel).amount

    def _top_up(self) -> bool:
        """Fund the escrow the outgoing channel lacks for a claim that settles
        the balance to settle_to. False if there is no outgoing channel or the
        funds are short."""
        channel_id = self.balance.outgoing_channel
        if channel_id is None:
            return False
        needed = self.balance.highest_signed_cumulative + (
            self.balance.policy.settle_to - self.balance.value
        )
        shortfall = needed - self._outgoing_channel_size()
        if shortfall > 0:
            try:
                self.ledger.fund_channel(channel_id, shortfall)
            except lg.InsufficientFunds as exc:
                log.warning("cannot top up channel %s: %s", channel_id, exc)
                return False
        return True

    def handle_claim_entry(self, data: bytes) -> None:
        info = json.loads(data)
        claim = lg.Claim(
            info["channel_id"], int(info["cumulative_amount"]), bytes.fromhex(info["signature"])
        )
        try:
            delta = self.balance.receive_claim(claim, self.ledger)
        except lg.InvalidClaim as exc:
            raise link.BtpErrorResponse("F00", f"invalid claim: {exc}") from exc
        self.events.emit(
            self.component, "claim_received", peer=self.peer_id, delta=delta,
            cumulative=claim.cumulative_amount,
        )
