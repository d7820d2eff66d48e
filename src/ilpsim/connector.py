"""The ILSP core: accepts child/peer/parent links, assigns child addresses,
routes Prepares by longest prefix, converts amounts with a rate backend,
enforces the middleware pipeline, and relays Fulfill/Reject backward.

Middleware order on an incoming Prepare is fixed: expiry, maxPacketAmount
(F08), trust limit (T04), then route lookup (F02)."""

from __future__ import annotations

import dataclasses
import logging
import threading
from dataclasses import dataclass
from datetime import timedelta
from typing import Optional

from . import btp, ilp, ledger as lg, link, peering, rates
from .clock import SimClock
from .events import EventLog, NULL_LOG
from .routing import DuplicateRoute, RouteTable
from .settlement import BalancePolicy, BilateralBalance, policy_from_config

log = logging.getLogger(__name__)


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
        own_address: ilp.IlpAddress | str,
        backend: rates.RateBackend,
        ledgers: dict[str, lg.Ledger],
        clock: Optional[SimClock] = None,
        event_log: EventLog = NULL_LOG,
        name: str = "",
        min_message_window: float = 1.0,
        expiry_decrement: float = 1.0,
        forward_timeout: float = 5.0,
    ):
        if isinstance(own_address, str):
            own_address = ilp.parse_address(own_address)
        self.address = own_address
        self.backend = backend
        self.ledgers = ledgers
        self.clock = clock or SimClock()
        self.events = event_log
        self.name = name or str(own_address)
        self.min_message_window = min_message_window
        self.expiry_decrement = expiry_decrement
        self.forward_timeout = forward_timeout
        self.routes = RouteTable(own_address)
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
        self.attach_endpoint(account_id, endpoint)
        return True

    def attach_endpoint(self, account_id: str, endpoint: link.LinkEndpoint) -> ConnectorPeer:
        account = self.accounts[account_id]
        peer = self._new_peer(account, endpoint.peer_auth_name or account.account_id)
        self._serve(peer, endpoint)
        if account.relation == "child":
            self.register_child(peer)
        # static peer/parent: route inserted from config via add_route
        return peer

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
        endpoint.authenticate(auth_name, token)
        return peer

    def establish_channel(self, peer_id: str) -> None:
        """Open and announce the configured outgoing channel to a peer, unless
        one is open, asking the peer for its ledger identity first if unknown."""
        peer = self.peers[peer_id]
        amount = peer.account.outgoing_channel_amount
        if amount <= 0 or peer.balance.outgoing_channel is not None:
            return
        peer.open_channel(amount, peer.account.settle_delay, timeout=self.forward_timeout)

    def register_child(self, peer: ConnectorPeer) -> ilp.IlpAddress:
        address = self.address.with_suffix(peer.account.account_id, peer.auth_name)
        peer.child_address = address
        try:
            self.routes.insert(address, peer.peer_id)
        except DuplicateRoute as exc:
            raise DuplicateChild(str(address)) from exc
        self.events.emit(self.name, "child_registered", peer=peer.peer_id, address=str(address))
        return address

    def add_route(self, prefix: str, peer_id: str) -> None:
        self.routes.insert(prefix, peer_id)

    # -- link message handling

    def _serve(self, peer: ConnectorPeer, endpoint: link.LinkEndpoint) -> None:
        peer.attach(
            endpoint,
            lambda prepare: self.handle_prepare(peer, prepare),
            ildcp=lambda _data: self._ildcp_response(peer),
            channel=lambda data: self._accept_channel(peer, data),
        )

    def _ildcp_response(self, peer: ConnectorPeer) -> btp.ProtocolEntry:
        if peer.child_address is None:
            raise link.BtpErrorResponse("F00", "no address assigned on this account")
        return peering.ildcp_entry(
            peer.child_address, peer.account.asset_code, peer.account.asset_scale
        )

    def _accept_channel(self, peer: ConnectorPeer, data: bytes) -> None:
        peer.handle_channel_entry(data)
        incoming = peer.ledger.get_channel(peer.balance.incoming_channel)
        if incoming.amount < peer.account.min_incoming_channel_amount:
            peer.balance.incoming_channel = None
            raise link.BtpErrorResponse(
                "F00",
                f"channel of {incoming.amount} is below the minimum of "
                f"{peer.account.min_incoming_channel_amount}",
            )
        self.establish_channel(peer.peer_id)  # the reciprocal channel

    # -- packet pipeline

    def handle_prepare(
        self, from_peer: ConnectorPeer, prepare: ilp.PreparePacket
    ) -> ilp.FulfillPacket | ilp.RejectPacket:
        account = from_peer.account
        self.events.emit(
            self.name, "prepare_in", peer=from_peer.peer_id, amount=prepare.amount,
            condition=prepare.condition.hex(),
        )
        # 1. expiry
        window = timedelta(seconds=self.min_message_window)
        if self.clock.now() + window >= prepare.expires_at:
            return self._reject(ilp.R00_TRANSFER_TIMED_OUT, "insufficient time before expiry")
        # 2. max packet amount
        if account.max_packet_amount is not None and prepare.amount > account.max_packet_amount:
            return self._reject(
                ilp.F08_AMOUNT_TOO_LARGE,
                f"amount {prepare.amount} exceeds maximum of {account.max_packet_amount}",
            )
        # 3. trust limit
        if not from_peer.balance.on_incoming_prepare(prepare.amount):
            return self._reject(ilp.T04_INSUFFICIENT_LIQUIDITY, "exceeds balance maximum")
        # 4. route
        next_hop = self.routes.lookup(prepare.destination)
        if next_hop is None or next_hop == from_peer.peer_id:
            from_peer.balance.rollback_incoming(prepare.amount)
            return self._reject(ilp.F02_UNREACHABLE, f"no route to {prepare.destination}")
        to_peer = self.peers[next_hop]
        # 5. convert and forward
        try:
            out_amount = self.backend.convert(
                prepare.amount,
                account.asset_code,
                account.asset_scale,
                to_peer.account.asset_code,
                to_peer.account.asset_scale,
            )
        except rates.NoRate as exc:
            from_peer.balance.rollback_incoming(prepare.amount)
            return self._reject(ilp.F02_UNREACHABLE, str(exc))
        out_prepare = dataclasses.replace(
            prepare,
            amount=out_amount,
            expires_at=prepare.expires_at - timedelta(seconds=self.expiry_decrement),
        )
        self.events.emit(
            self.name, "prepare_forwarded", peer=to_peer.peer_id, amount=out_amount,
            condition=prepare.condition.hex(),
        )
        response = peering.send_prepare(
            to_peer.endpoint, out_prepare, self.forward_timeout, self.address
        )
        # 6/7. relay
        if isinstance(response, ilp.FulfillPacket):
            if not ilp.verify_fulfillment(response.fulfillment, prepare.condition):
                from_peer.balance.rollback_incoming(prepare.amount)
                self.events.emit(
                    self.name, "fulfill_relayed", condition=prepare.condition.hex(),
                    verified=False,
                )
                return self._reject(ilp.F05_WRONG_CONDITION, "fulfillment does not match condition")
            to_peer.record_fulfilled(out_amount, settle_timeout=self.forward_timeout)
            self.events.emit(
                self.name, "fulfill_relayed", condition=prepare.condition.hex(), verified=True,
            )
            return response
        from_peer.balance.rollback_incoming(prepare.amount)
        self.events.emit(
            self.name, "reject_relayed", condition=prepare.condition.hex(), code=response.code,
        )
        return response

    def _reject(self, code: str, message: str) -> ilp.RejectPacket:
        return ilp.RejectPacket(code=code, triggered_by=self.address, message=message)

    # -- reporting

    def snapshot(self) -> dict:
        return {
            "address": str(self.address),
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
        "ilp_address", "backend", "spread", "rates", "accounts", "adminApiPort",
        "minMessageWindow", "expiryDecrement", "forwardTimeout", "name",
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
        min_message_window=float(config.get("minMessageWindow", 1.0)),
        expiry_decrement=float(config.get("expiryDecrement", 1.0)),
        forward_timeout=float(config.get("forwardTimeout", 5.0)),
    )
    for account_id, acct_cfg in config.get("accounts", {}).items():
        conn.add_account(account_from_config(account_id, acct_cfg))
    return conn
