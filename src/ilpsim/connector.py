"""The ILSP core: accepts child/peer/parent links, assigns child addresses,
routes Prepares by longest prefix, converts amounts with a rate backend,
enforces the middleware pipeline, and relays Fulfill/Reject backward.
Prepares and Fulfills pass through as bytes: a Prepare is read once and
forwarded with its amount and expiry rewritten in place, and a Fulfill is
relayed as received once it matches the condition.

Middleware order on an incoming Prepare is fixed: expiry, maxPacketAmount
(F08), trust limit (T04), then route lookup (F02, also when the next hop has
no connected peer). A converted amount too large for an ILP amount (2^64 or
more) is F08 as well. The trust limit holds the amount on the incoming
balance, and every Reject after it releases the hold (see Peer.hold).

A Prepare needs more than MIN_MESSAGE_WINDOW left before its expiry, and is
forwarded with its expiry EXPIRY_DECREMENT earlier."""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Optional

from . import btp, ilp, ledger as lg, link, peering, rates
from .clock import SimClock
from .events import EventLog, NULL_LOG
from .routing import DuplicateRoute, RouteTable
from .settlement import BalancePolicy, BilateralBalance, policy_from_config

log = logging.getLogger(__name__)

MIN_MESSAGE_WINDOW = timedelta(seconds=1)
EXPIRY_DECREMENT = timedelta(seconds=1)


class DuplicateChild(Exception):
    pass


@dataclass(frozen=True)
class AccountConfig:
    account_id: str
    relation: str  # parent | child | peer
    asset_code: str
    asset_scale: int
    policy: BalancePolicy
    secret: str = ""  # auth token (expected from clients, or presented when dialing)
    max_packet_amount: Optional[int] = None
    outgoing_channel_amount: int = 0
    min_incoming_channel_amount: int = 0
    ledger_id: str = ""
    ledger_account: str = ""  # the connector's own account on that ledger
    settle_delay: int = peering.DEFAULT_SETTLE_DELAY

    def __post_init__(self):
        if self.relation not in ("parent", "child", "peer"):
            raise ValueError(f"bad relation {self.relation!r}")


def account_from_config(account_id: str, cfg: dict) -> AccountConfig:
    known = {
        "relation", "assetCode", "assetScale", "balance", "options", "maxPacketAmount",
        "outgoingChannelAmount", "minIncomingChannelAmount", "ledger", "ledgerAccount",
        "settleDelay",
    }
    for key in set(cfg) - known:
        log.warning("account %s: ignoring unknown config key %r", account_id, key)
    options = cfg.get("options", {})
    return AccountConfig(
        account_id=account_id,
        relation=cfg["relation"],
        asset_code=cfg["assetCode"],
        asset_scale=int(cfg["assetScale"]),
        policy=policy_from_config(cfg.get("balance", {})),
        secret=str(options.get("secret", "")),
        max_packet_amount=(
            int(cfg["maxPacketAmount"]) if "maxPacketAmount" in cfg else None
        ),
        outgoing_channel_amount=int(cfg.get("outgoingChannelAmount", 0)),
        min_incoming_channel_amount=int(cfg.get("minIncomingChannelAmount", 0)),
        ledger_id=cfg.get("ledger", ""),
        ledger_account=cfg.get("ledgerAccount", ""),
        settle_delay=int(cfg.get("settleDelay", peering.DEFAULT_SETTLE_DELAY)),
    )


class ConnectorPeer(peering.Peer):
    def __init__(self, peer_id: str, account: AccountConfig, auth_name: str, **kwargs):
        super().__init__(peer_id, **kwargs)
        self.account = account
        self.auth_name = auth_name
        self.child_address: Optional[ilp.IlpAddress] = None


class Connector:
    def __init__(
        self,
        own_address: str,
        backend: rates.RateBackend,
        ledgers: dict[str, lg.Ledger],
        clock: Optional[SimClock] = None,
        event_log: EventLog = NULL_LOG,
        name: str = "",
    ):
        self.address = ilp.parse_address(own_address)
        self.backend = backend
        self.ledgers = ledgers
        self.clock = clock or SimClock()
        self.events = event_log
        self.name = name or self.address
        self.forward_timeout = 5.0  # scenario.Topology.arm_faults may lower it
        self.routes = RouteTable()
        self.accounts: dict[str, AccountConfig] = {}
        self.signing_keys: dict[str, "lg.Ed25519PrivateKey"] = {}
        self.peers: dict[str, ConnectorPeer] = {}
        self._lock = threading.Lock()

    # -- wiring

    def add_account(self, account: AccountConfig) -> None:
        self.accounts[account.account_id] = account
        ledger = self.ledgers[account.ledger_id]
        if account.ledger_id not in self.signing_keys:
            priv, pub = lg.generate_keypair()
            self.signing_keys[account.ledger_id] = priv
            try:
                ledger.create_and_fund(account.ledger_account, pub, 0)
            except lg.DuplicateAccount:
                pass

    def fund_ledger_account(self, account_id: str, amount: int) -> None:
        account = self.accounts[account_id]
        ledger = self.ledgers[account.ledger_id]
        ledger.transfer(lg.GENESIS, account.ledger_account, amount)

    def _new_peer(self, account: AccountConfig, auth_name: str) -> ConnectorPeer:
        peer_id = (
            f"{account.account_id}.{auth_name}" if account.relation == "child" else account.account_id
        )
        with self._lock:
            if peer_id in self.peers:
                raise DuplicateChild(peer_id)
            peer = ConnectorPeer(
                peer_id,
                account,
                auth_name,
                balance=BilateralBalance(peer_id, account.policy),
                ledger=self.ledgers[account.ledger_id],
                own_ledger_account=account.ledger_account,
                signing_key=self.signing_keys[account.ledger_id],
                component=self.name,
                event_log=self.events,
            )
            self.peers[peer_id] = peer
        return peer

    def accept_transport(self, account_id: str, transport) -> None:
        """Accept an inbound connection for one account: its endpoint
        authenticates the peer against the account's secret and wires it up
        as a peer (registering child routes as needed)."""
        link.LinkEndpoint(
            transport,
            accept=lambda endpoint, _name, token: self._accept(account_id, endpoint, token),
        )

    def _accept(self, account_id: str, endpoint: link.LinkEndpoint, token: str) -> bool:
        account = self.accounts.get(account_id)
        if account is None or token != account.secret:
            return False
        peer = self._new_peer(account, endpoint.peer_auth_name or account.account_id)
        self._serve(peer, endpoint)
        if account.relation == "child":
            try:
                self.register_child(peer)
            except (ilp.MalformedAddress, DuplicateChild):
                with self._lock:  # a refused child leaves no peer behind
                    del self.peers[peer.peer_id]
                raise
        # static peer/parent: route inserted from config into self.routes
        return True

    def listen(self, port: int, host: str = "127.0.0.1") -> link.TcpListener:
        """Accept BTP-over-TCP connections; clients authenticate with their
        account id as the auth name and the account secret as the token."""
        return link.TcpListener(
            port, lambda endpoint, name, token: self._accept(name, endpoint, token), host=host
        )

    def dial(self, account_id: str, transport, auth_name: str, token: str) -> ConnectorPeer:
        """Outbound peering (e.g. to another connector)."""
        account = self.accounts[account_id]
        peer = self._new_peer(account, auth_name)
        endpoint = link.LinkEndpoint(transport)
        self._serve(peer, endpoint)
        try:
            endpoint.authenticate(auth_name, token)
        except link.LinkError:
            endpoint.close()
            with self._lock:  # a refused dial leaves no peer behind
                del self.peers[peer.peer_id]
            raise
        return peer

    def establish_channel(self, peer_id: str) -> None:
        """Open and announce the configured outgoing channel to a peer (see
        Peer.open_channel)."""
        peer = self.peers[peer_id]
        peer.open_channel(
            peer.account.outgoing_channel_amount, peer.account.settle_delay,
            timeout=self.forward_timeout,
        )

    def register_child(self, peer: ConnectorPeer) -> None:
        address = self.address.with_suffix(peer.account.account_id, peer.auth_name)
        peer.child_address = address
        try:
            self.routes.insert(address, peer.peer_id)
        except DuplicateRoute as exc:
            raise DuplicateChild(address) from exc
        self.events.emit(self.name, "child_registered", peer=peer.peer_id, address=address)

    # -- link message handling

    def _serve(self, peer: ConnectorPeer, endpoint: link.LinkEndpoint) -> None:
        peer.attach(
            endpoint,
            ilp=peering.ilp_handler(lambda data: self.handle_prepare(peer, data)),
            ildcp=lambda _data: self._ildcp_response(peer),
            channel=lambda data: self._accept_channel(peer, data),
        )

    def _ildcp_response(self, peer: ConnectorPeer) -> btp.ProtocolEntry:
        if peer.child_address is None:
            raise link.PeerError("F00", "no address assigned on this account")
        return peering.ildcp_entry(
            peer.child_address, peer.account.asset_code, peer.account.asset_scale
        )

    def _accept_channel(self, peer: ConnectorPeer, data: bytes) -> None:
        with self._lock:  # a channel is one peer's: check and record it at once
            others = (p for p in self.peers.values() if p is not peer and p.ledger is peer.ledger)
            taken = {p.balance.incoming_channel for p in others}
            peer.handle_channel_entry(data, peer.account.min_incoming_channel_amount, taken)
        self.establish_channel(peer.peer_id)  # the reciprocal channel

    # -- packet pipeline

    def handle_prepare(self, from_peer: ConnectorPeer, data: bytes) -> bytes | ilp.RejectPacket:
        """Run the pipeline on an encoded Prepare. It is forwarded as bytes,
        with only its amount and expiry rewritten, and the next hop's Fulfill
        is relayed as the bytes received once its fulfillment matches the
        condition; a Reject is returned decoded, so its code can be read.
        Bytes that are no Prepare raise CodecError."""
        amount, expires_at, condition_b, destination, _payload, head = ilp.read_prepare(data)
        account = from_peer.account
        condition = condition_b.hex()
        self.events.emit(
            self.name, "prepare_in", peer=from_peer.peer_id, amount=amount, condition=condition,
        )
        # 1. expiry
        if self.clock.now() + MIN_MESSAGE_WINDOW >= expires_at:
            return self._reject(ilp.R00_TRANSFER_TIMED_OUT, "insufficient time before expiry")
        # 2. max packet amount
        if account.max_packet_amount is not None and amount > account.max_packet_amount:
            return self._reject(
                ilp.F08_AMOUNT_TOO_LARGE,
                f"amount {amount} exceeds maximum of {account.max_packet_amount}",
            )
        # 3. trust limit
        return from_peer.hold(
            amount, self.address, self._forward,
            from_peer, data, head, amount, expires_at, condition_b, condition, destination,
        )

    def _forward(
        self, from_peer: ConnectorPeer, data: bytes, head: int, amount: int,
        expires_at: datetime, condition_b: bytes, condition: str, destination: ilp.IlpAddress,
    ) -> bytes | ilp.RejectPacket:
        """Steps 4 to 7 of handle_prepare, for a Prepare whose amount is held:
        the fields ilp.read_prepare read from `data`, and `condition_b` in hex."""
        account = from_peer.account
        # 4. route: a next hop that has no peer, or is the sender, is no route
        to_peer = self.peers.get(self.routes.lookup(destination))
        if to_peer is None or to_peer is from_peer:
            return self._reject(ilp.F02_UNREACHABLE, f"no route to {destination}")
        # 5. convert and forward
        try:
            out_amount = self.backend.convert(
                amount,
                account.asset_code,
                account.asset_scale,
                to_peer.account.asset_code,
                to_peer.account.asset_scale,
            )
        except rates.NoRate as exc:
            return self._reject(ilp.F02_UNREACHABLE, str(exc))
        if out_amount >= 2**64:
            return self._reject(
                ilp.F08_AMOUNT_TOO_LARGE, f"converted amount {out_amount} exceeds 64 bits"
            )
        forwarded = ilp.rewrite_prepare(
            data, head, out_amount, expires_at - EXPIRY_DECREMENT
        )
        self.events.emit(
            self.name, "prepare_forwarded", peer=to_peer.peer_id, amount=out_amount,
            condition=condition,
        )
        response = peering.relay_prepare(
            to_peer.endpoint, forwarded, self.forward_timeout, self.address
        )
        # 6/7. relay
        if isinstance(response, ilp.RejectPacket):
            self.events.emit(
                self.name, "reject_relayed", condition=condition, code=response.code
            )
            return response
        fulfill, fulfillment, _data = response
        if not ilp.verify_fulfillment(fulfillment, condition_b):
            self.events.emit(self.name, "fulfill_relayed", condition=condition, verified=False)
            return self._reject(ilp.F05_WRONG_CONDITION, "fulfillment does not match condition")
        to_peer.record_fulfilled(out_amount, settle_timeout=self.forward_timeout)
        self.events.emit(self.name, "fulfill_relayed", condition=condition, verified=True)
        return fulfill

    def _reject(self, code: str, message: str) -> ilp.RejectPacket:
        return ilp.RejectPacket(code=code, triggered_by=self.address, message=message)

    # -- reporting

    def snapshot(self) -> dict:
        return {
            "address": self.address,
            "accounts": {
                peer_id: {
                    "account": peer.account.account_id,
                    "relation": peer.account.relation,
                    "asset_code": peer.account.asset_code,
                    "balance": peer.balance.value,
                    "outgoing_channel": peer.balance.outgoing_channel,
                    "incoming_channel": peer.balance.incoming_channel,
                }
                for peer_id, peer in self.peers.items()
            },
            "routes": self.routes.as_list(),
        }


def load_connector(
    config: dict,
    ledgers: dict[str, lg.Ledger],
    clock: Optional[SimClock] = None,
    event_log: EventLog = NULL_LOG,
) -> Connector:
    """Build a connector from a JSON config dict using the conventional key
    names (ilp_address, backend, spread, accounts{...})."""
    known = {
        "ilp_address", "backend", "spread", "rates", "accounts", "adminApiPort", "name",
        "funding", "ledgers", "btpPort",  # read by the scenario harness or the CLI
    }
    for key in set(config) - known:
        log.warning("connector config: ignoring unknown key %r", key)
    backend = rates.backend_from_config(config)
    conn = Connector(
        config["ilp_address"],
        backend,
        ledgers,
        clock=clock,
        event_log=event_log,
        name=config.get("name", ""),
    )
    for account_id, acct_cfg in config.get("accounts", {}).items():
        conn.add_account(account_from_config(account_id, acct_cfg))
    return conn
