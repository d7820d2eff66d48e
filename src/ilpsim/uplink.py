"""The home-router uplink node: dials its parent connector over BTP, opens a
payment channel, learns its child address, and bridges local applications
(payment clients and receiving servers) onto ILP."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from . import btp, ilp, ledger as lg, link, peering, stream
from .clock import SimClock
from .events import EventLog, NULL_LOG
from .settlement import BalancePolicy, BilateralBalance, policy_from_config

log = logging.getLogger(__name__)

DEFAULT_LOCAL_APP_PORT = 7768
# triggered_by of the Rejects a node makes before it has learnt its address
NODE_ADDRESS = ilp.parse_address("self.node")


@dataclass(frozen=True)
class UplinkConfig:
    name: str  # BTP auth name presented to the parent
    token: str
    policy: BalancePolicy
    ledger_account: str  # this node's funded account on the ledger
    channel_amount: int = 0  # escrow for the channel opened towards the parent
    settle_delay: int = peering.DEFAULT_SETTLE_DELAY
    parent: Optional[link.BtpUri] = None  # the parsed "server" URI; None for direct attach
    local_app_port: int = DEFAULT_LOCAL_APP_PORT  # 0 binds an ephemeral port
    local_secret: str = "local"


def uplink_from_config(cfg: dict) -> UplinkConfig:
    """Accepts the conventional uplink option keys (server, balance{...},
    ledgerAccount, channelAmount...). The node learns its asset from its
    parent over ILDCP, so a config names none."""
    known = {
        "server", "name", "token", "balance", "ledgerAccount", "channelAmount",
        "settleDelay", "localAppPort", "localSecret", "ledgerApi", "fund", "adminApiPort",
    }
    for key in set(cfg) - known:
        log.warning("uplink config: ignoring unknown key %r", key)
    name, token, parent = cfg.get("name", ""), cfg.get("token", ""), None
    if "server" in cfg:
        parent = link.parse_btp_uri(cfg["server"])
        name, token = parent.name, parent.token
    return UplinkConfig(
        name=name,
        token=token,
        policy=policy_from_config(cfg.get("balance", {})),
        ledger_account=cfg["ledgerAccount"],
        channel_amount=int(cfg.get("channelAmount", 0)),
        settle_delay=int(cfg.get("settleDelay", peering.DEFAULT_SETTLE_DELAY)),
        parent=parent,
        local_app_port=int(cfg.get("localAppPort", DEFAULT_LOCAL_APP_PORT)),
        local_secret=cfg.get("localSecret", "local"),
    )


class UplinkNode:
    def __init__(
        self,
        config: UplinkConfig,
        ledger: lg.Ledger,
        clock: Optional[SimClock] = None,
        event_log: EventLog = NULL_LOG,
    ):
        self.config = config
        self.ledger = ledger
        self.clock = clock or SimClock()
        self.events = event_log
        # learnt from the parent's ILDCP answer in connect()
        self.address: Optional[ilp.IlpAddress] = None
        self.asset_code: Optional[str] = None
        self.asset_scale: Optional[int] = None
        self.signing_key, self._pubkey = lg.generate_keypair()
        self.parent = peering.Peer(
            "parent",
            BilateralBalance("parent", config.policy),
            ledger,
            config.ledger_account,
            self.signing_key,
            component=f"node:{config.name}",
            event_log=event_log,
        )
        self.stream_server: Optional[stream.StreamServer] = None
        self._local_sink: Optional[link.LinkEndpoint] = None
        self._local_listener: Optional[link.TcpListener] = None
        self.request_timeout = 5.0

    # -- startup

    def connect(self, transport) -> None:
        """Authenticate to the parent over an established transport, learn the
        child address and asset, and open the outgoing payment channel."""
        endpoint = link.LinkEndpoint(transport)
        self.parent.attach(
            endpoint,
            ilp=peering.ilp_handler(lambda prepare: self._handle_prepare(prepare)),
        )
        endpoint.authenticate(self.config.name, self.config.token, timeout=self.request_timeout)
        info = peering.query(endpoint, "ildcp", self.request_timeout)
        self.address = ilp.parse_address(info["ilp_address"])
        self.asset_code, self.asset_scale = info["asset_code"], info["asset_scale"]
        if self.stream_server is not None:
            self.stream_server.base_address = self.address.with_suffix("local")
        self.events.emit(self.parent.component, "address_assigned", address=self.address)
        self.parent.open_channel(
            self.config.channel_amount, self.config.settle_delay, timeout=self.request_timeout
        )

    def connect_tcp(self) -> None:
        self.connect(link.TcpTransport.connect(self.config.parent.host, self.config.parent.port))

    # -- outgoing payments

    def send_packet(
        self, prepare: ilp.PreparePacket, timeout: Optional[float] = None
    ) -> ilp.FulfillPacket | ilp.RejectPacket:
        if self.parent.endpoint is None:
            raise link.LinkError("uplink is not connected")
        timeout = timeout if timeout is not None else self.request_timeout
        packet = peering.send_prepare(
            self.parent.endpoint, prepare, timeout, self.address or NODE_ADDRESS
        )
        if isinstance(packet, ilp.FulfillPacket) and ilp.verify_fulfillment(
            packet.fulfillment, prepare.condition
        ):
            self.parent.record_fulfilled(prepare.amount, settle_timeout=timeout)
        return packet

    def open_stream(self, credentials: stream.StreamCredentials, **kwargs) -> stream.StreamSender:
        return stream.StreamSender(self.send_packet, credentials, clock=self.clock, **kwargs)

    # -- incoming traffic

    def attach_stream_server(self, server: stream.StreamServer) -> None:
        self.stream_server = server
        if self.address is not None:
            server.base_address = self.address.with_suffix("local")

    def _handle_prepare(self, prepare: ilp.PreparePacket) -> ilp.FulfillPacket | ilp.RejectPacket:
        if self.address is None or not self.address.is_prefix_of(prepare.destination):
            return ilp.RejectPacket(
                code=ilp.F02_UNREACHABLE,
                triggered_by=self.address or NODE_ADDRESS,
                message="not my address",
            )
        return self.parent.hold(prepare.amount, self.address, self._deliver_locally, prepare)

    def _deliver_locally(self, prepare: ilp.PreparePacket) -> ilp.FulfillPacket | ilp.RejectPacket:
        sink = self._local_sink
        if sink is not None and not sink.closed.is_set():
            return peering.send_prepare(sink, prepare, self.request_timeout, self.address)
        if self.stream_server is not None:
            return self.stream_server.handle_prepare(prepare)
        return ilp.RejectPacket(
            code=ilp.F06_UNEXPECTED_PAYMENT,
            triggered_by=self.address,
            message="no local application listening",
        )

    # -- local application port

    def listen_local(self, port: Optional[int] = None) -> int:
        """Serve local apps over the same BTP framing on a TCP port. Apps may
        send packets ("ilp"), query the address ("ildcp"), or register as the
        packet sink ("listen")."""
        port = port if port is not None else self.config.local_app_port
        self._local_listener = link.TcpListener(port, self._accept_local_app)
        return self._local_listener.port

    def _accept_local_app(self, endpoint: link.LinkEndpoint, _name: str, token: str) -> bool:
        if token != self.config.local_secret:
            return False

        def ildcp(_data: bytes) -> btp.ProtocolEntry:
            if self.address is None:
                raise link.PeerError("T00", "no address assigned yet")
            return peering.ildcp_entry(
                self.address.with_suffix("local"), self.asset_code, self.asset_scale
            )

        def listen(_data: bytes) -> btp.ProtocolEntry:
            self._local_sink = endpoint
            return peering.json_entry("listen", {"ok": True})

        endpoint.handler = peering.message_handler(
            {
                "ilp": peering.ilp_handler(lambda prepare: self.send_packet(prepare)),
                "ildcp": ildcp,
                "listen": listen,
            }
        )
        return True

    # -- queries / teardown

    def info(self) -> dict:
        account = self.ledger.account_info(self.config.ledger_account)
        return {
            "name": self.config.name,
            "address": self.address,
            "asset_code": self.asset_code,
            "asset_scale": self.asset_scale,
            "ilp_balance": self.parent.balance.value,
            "ledger_balance": account.balance,
            "channels": [
                {
                    "channel_id": c.channel_id,
                    "direction": "outgoing" if c.account == account.account_id else "incoming",
                    "amount": c.amount,
                    "balance": c.balance,
                    "state": c.state,
                }
                for c in self.ledger.channels(account.account_id)
            ],
        }

    def cleanup(self) -> dict:
        """Close this node's channels: incoming as payee (immediate), outgoing
        as payer (enters the settle-delay window, finalized when elapsed)."""
        closed, closing = [], []
        for channel in self.ledger.channels(self.config.ledger_account):
            if channel.state == lg.CLOSED:
                continue
            try:
                result = self.ledger.close_channel(channel.channel_id, self.config.ledger_account)
                if result.state == lg.CLOSING:
                    self.ledger.finalize_closing(channel.channel_id)
                closed.append(channel.channel_id)
            except lg.LedgerError:  # still inside the settle-delay window
                closing.append(channel.channel_id)
        return {"closed": closed, "closing": closing}

    def close(self) -> None:
        if self.parent.endpoint is not None:
            self.parent.endpoint.close()
        if self._local_listener is not None:
            self._local_listener.close()
