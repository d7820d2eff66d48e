"""Money machinery shared by connectors and uplink nodes for one direct peer:
channel announcements, automatic settlement claims, and claim receipt; the
one table that answers the sub-protocol entries of inbound BTP Messages; and
the one outbound path: `request_entry` sends an entry and returns the data of
the reply entry of the same name, `query` is the client of the JSON
sub-protocols, and `send_prepare` sends an ILP Prepare and returns its
Fulfill or Reject packet as it came, turning link failures into Rejects.

An "ilp" entry carries an ILP packet (see `ilp`), which a memory link hands
over as the same object; only bytes read off TCP are decoded (`_packet`).

Each receiving side registers a handler per entry name (see `dispatch`).
Entries, and who answers them:

    "ilp"             octets  an ILP Prepare; answered with its Fulfill or
                              Reject by every Peer (connector: the packet
                              pipeline, which forwards the Prepare and relays
                              its Fulfill as it came; uplink: delivery to the
                              local app or stream server), by the uplink's
                              local-app port (sends it on to the parent) and
                              by a LocalApp registered as sink (its stream
                              server). A Fulfill or Reject is refused with
                              F00.
    "ildcp"           JSON    address and asset query; the connector for a
                              child, the local-app port for a local app
    "channel"         JSON    payer announces a freshly opened outgoing
                              channel by its id alone; every Peer (see
                              handle_channel_entry; the connector also
                              refuses another peer's channel or one below
                              minIncomingChannelAmount, and opens its own
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
from typing import Callable, Collection, Optional

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from . import btp, ilp, ledger as lg, link, wire
from .events import EventLog, NULL_LOG
from .settlement import BilateralBalance

log = logging.getLogger(__name__)

DEFAULT_SETTLE_DELAY = 3600


def json_entry(name: str, payload: dict) -> btp.ProtocolEntry:
    return btp.ProtocolEntry(name, btp.CONTENT_STRUCTURED, json.dumps(payload).encode())


def ilp_entry(packet: bytes) -> btp.ProtocolEntry:
    return btp.ProtocolEntry("ilp", btp.CONTENT_OCTET_STREAM, packet)


def ildcp_entry(address: ilp.IlpAddress, asset_code: str, asset_scale: int) -> btp.ProtocolEntry:
    return json_entry(
        "ildcp",
        {"ilp_address": address, "asset_code": asset_code, "asset_scale": asset_scale},
    )


# Takes an entry's data; returns the reply entry, or None for no reply.
EntryHandler = Callable[[bytes], Optional[btp.ProtocolEntry]]
# Takes a Prepare; returns its Fulfill or Reject.
PrepareHandler = Callable[[ilp.PreparePacket], ilp.FulfillPacket | ilp.RejectPacket]


def _packet(data: bytes) -> ilp.IlpPacket:
    """An "ilp" entry's data as a packet: a memory link hands the packet
    over as it is, and bytes read off TCP are decoded (CodecError if bad)."""
    return data if isinstance(data, ilp.IlpPacket) else ilp.decode_packet(data)


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


def query(endpoint: link.LinkEndpoint, name: str, timeout: float) -> dict:
    """Ask the JSON sub-protocol `name` with an empty request; return the
    decoded answer."""
    return json.loads(request_entry(endpoint, json_entry(name, {}), timeout))


def send_prepare(
    endpoint: link.LinkEndpoint,
    prepare: ilp.PreparePacket,
    timeout: float,
    triggered_by: ilp.IlpAddress,
) -> ilp.FulfillPacket | ilp.RejectPacket:
    """Send a Prepare and return its Fulfill or Reject as it came. A timeout
    becomes an R00 Reject; any other link failure, or an answer that is a
    Prepare or no ILP packet at all, a T00 Reject triggered by
    `triggered_by`."""
    try:
        answer = _packet(request_entry(endpoint, ilp_entry(prepare), timeout))
    except link.Timeout as exc:
        code, message = ilp.R00_TRANSFER_TIMED_OUT, f"timed out: {exc}"
    except link.LinkError as exc:
        code, message = ilp.T00_INTERNAL_ERROR, f"link error: {exc}"
    except wire.CodecError as exc:
        code, message = ilp.T00_INTERNAL_ERROR, f"undecodable answer: {exc}"
    else:
        if not isinstance(answer, ilp.PreparePacket):
            return answer
        code, message = ilp.T00_INTERNAL_ERROR, "answered with a Prepare"
    return ilp.RejectPacket(code=code, triggered_by=triggered_by, message=message)


def message_handler(table: dict[str, EntryHandler]) -> link.MessageHandler:
    return lambda _endpoint, entries: dispatch(table, entries)


def ilp_handler(handle_prepare: PrepareHandler) -> EntryHandler:
    """The "ilp" entry: refuse anything but a Prepare (bad bytes raise
    CodecError, a Fulfill or Reject F00) and answer with the packet that
    handle_prepare returns. handle_prepare should look its method up at call
    time."""

    def handle(data: bytes) -> btp.ProtocolEntry:
        prepare = _packet(data)
        if not isinstance(prepare, ilp.PreparePacket):
            raise link.PeerError("F00", "only Prepare may initiate an exchange")
        return ilp_entry(handle_prepare(prepare))

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

    def attach(self, endpoint: link.LinkEndpoint, **entries: EntryHandler) -> None:
        """Make endpoint the link to this peer and answer its entries: the
        handlers of `entries` by name, "ilp" among them (see ilp_handler),
        plus "channel", "claim" and "ledger_identity" unless replaced.
        Handlers look methods up per call, so patched methods take effect."""
        table: dict[str, EntryHandler] = {
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
        for its ledger account if it has not given it. Does nothing for a
        non-positive amount or when the channel is open already."""
        if amount <= 0 or self.balance.outgoing_channel is not None:
            return
        if self.peer_ledger_account is None:
            self.peer_ledger_account = query(self.endpoint, "ledger_identity", timeout)["account"]
        channel = self.open_outgoing_channel(amount, settle_delay)
        announce = json_entry("channel", {"channel_id": channel.channel_id})
        self.endpoint.request([announce], timeout=timeout)

    def open_outgoing_channel(self, amount: int, settle_delay: int = DEFAULT_SETTLE_DELAY):
        if self.peer_ledger_account is None:
            raise lg.LedgerError(f"peer {self.peer_id} has not identified its ledger account")
        pub = self.signing_key.public_key().public_bytes_raw()
        channel = self.ledger.open_channel(
            self.own_ledger_account, self.peer_ledger_account, amount, settle_delay, pub
        )
        self.balance.outgoing_channel = channel.channel_id
        return channel

    def handle_channel_entry(
        self, data: bytes, min_amount: int = 0, taken: Collection[str] = ()
    ) -> None:
        """Record the channel the peer announces, read once from the ledger: it
        must pay this side, be none of `taken`, be paid by the peer's ledger
        account if known, and hold `min_amount`; its payer becomes that account.
        An announce that is no JSON object naming a channel the ledger knows
        is F00."""
        try:
            channel = self.ledger.get_channel(json.loads(data)["channel_id"])
        except (ValueError, LookupError, TypeError, lg.UnknownChannel) as exc:
            raise link.PeerError("F00", f"bad channel announce: {exc!r}") from exc
        if channel.destination != self.own_ledger_account:
            raise link.PeerError("F00", "channel does not pay this peer")
        if channel.channel_id in taken or self.peer_ledger_account not in (None, channel.account):
            raise link.PeerError("F00", "channel is another peer's")
        if channel.amount < min_amount:
            raise link.PeerError(
                "F00", f"channel of {channel.amount} is below the minimum of {min_amount}"
            )
        self.balance.incoming_channel = channel.channel_id
        self.peer_ledger_account = channel.account
        self.events.emit(self.component, "channel_in", peer=self.peer_id, channel=channel.channel_id)

    # -- incoming Prepares

    def hold(self, amount: int, triggered_by: ilp.IlpAddress, deliver: Callable, *args):
        """Answer a Prepare of `amount` from this peer with `deliver(*args)`,
        holding the amount on the incoming balance meanwhile: T04 past the
        balance maximum, and any Reject releases the hold."""
        if not self.balance.on_incoming_prepare(amount):
            return ilp.RejectPacket(
                code=ilp.T04_INSUFFICIENT_LIQUIDITY,
                triggered_by=triggered_by,
                message="exceeds balance maximum",
            )
        answer = deliver(*args)
        if isinstance(answer, ilp.RejectPacket):
            self.balance.rollback_incoming(amount)
        return answer

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
            # The claim is signed and this side's balance has already moved;
            # the peer's has not, so the two sides now disagree by the claim's
            # amount until a later claim (a higher cumulative) reaches it.
            log.warning("claim delivery to %s failed: %s", self.peer_id, exc)

    def record_fulfilled(self, amount: int, settle_timeout: float = 5.0) -> None:
        """Outgoing-side bookkeeping after a verified fulfill; settles when
        the threshold is crossed (see _escrow)."""
        cumulative = self.balance.on_outgoing_fulfilled(amount, escrow=self._escrow)
        if cumulative is not None:
            self.settle(cumulative, timeout=settle_timeout)

    def settle_now(self, timeout: float = 5.0) -> Optional[int]:
        """Immediately settle whatever is owed (see _escrow)."""
        cumulative = self.balance.force_settle(escrow=self._escrow)
        if cumulative is not None:
            self.settle(cumulative, timeout=timeout)
        return cumulative

    def _escrow(self, cumulative: int) -> bool:
        """Make the outgoing channel's escrow cover a claim at `cumulative`:
        read the channel once, and fund the shortfall, if any. False if the
        funds are short. Called by the balance only when a claim is due."""
        channel_id = self.balance.outgoing_channel
        shortfall = cumulative - self.ledger.get_channel(channel_id).amount
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
        except lg.LedgerError as exc:
            raise link.PeerError("F00", f"invalid claim: {exc}") from exc
        self.events.emit(
            self.component, "claim_received", peer=self.peer_id, delta=delta,
            cumulative=claim.cumulative_amount,
        )
