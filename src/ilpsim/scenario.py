"""Scripted multi-node topologies with fault injection, global conservation
and atomicity checks, and machine-readable reports.

A scenario spec (JSON) declares ledgers, connectors, uplink nodes, optional
inter-connector peerings and static routes, and an ordered action list.
Runs are deterministic for a fixed (spec, seed, faults): every random
source (stream tokens/secrets, each link's drop/duplicate pattern) derives
from the seed and all actions are sequential. Every link is an in-process
memory link, where a request's answer arrives inside `send` or never, so a
dropped frame fails its request at once: faulty runs wait out no timeout
and race nothing. A spec's `faults` may set only `drop_rate` and
`duplicate_rate`."""

from __future__ import annotations

import json
import zlib
from importlib import resources
from dataclasses import asdict, dataclass, field
from random import Random
from typing import Optional

from . import connector as conn_mod
from . import ledger as lg
from . import link, spsp, stream, uplink
from .clock import SimClock
from .events import EventLog
from .settlement import BalancePolicy, check_peering_compat

DEFAULT_TIMEOUTS = {"forward_timeout": 5.0, "packet_timeout": 5.0, "retry_budget": 10}
FAULT_KEYS = frozenset({"drop_rate", "duplicate_rate"})


class SetupFailed(Exception):
    pass


class ScenarioAssertFailed(Exception):
    def __init__(self, check: str, detail: str = ""):
        super().__init__(f"{check}: {detail}" if detail else check)
        self.check = check


@dataclass
class ScenarioReport:
    name: str
    seed: int
    payments: list = field(default_factory=list)
    ledgers: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    events: list = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)

    def ok(self) -> bool:
        return all(v is True for v in self.checks.values())


def _derive_seed(seed: int, *parts: str) -> int:
    return zlib.crc32(f"{seed}:{':'.join(parts)}".encode())


class Topology:
    """Builds and owns every component of one scenario run."""

    def __init__(
        self,
        spec: dict,
        seed: int,
        faults: Optional[dict] = None,
        timeouts: Optional[dict] = None,
    ):
        self.spec = spec
        self.seed = seed
        self.faults = faults or spec.get("faults") or {}
        self.clock = SimClock()
        self.events = EventLog()
        self.ledgers: dict[str, lg.Ledger] = {}
        self.connectors: dict[str, conn_mod.Connector] = {}
        self.nodes: dict[str, uplink.UplinkNode] = {}
        self.servers: dict[str, stream.StreamServer] = {}
        self._fault_wrappers: list[link.FaultyTransport] = []
        merged = {**DEFAULT_TIMEOUTS, **spec.get("timeouts", {}), **(timeouts or {})}
        self.packet_timeout = float(merged["packet_timeout"])
        self.forward_timeout = float(merged["forward_timeout"])
        self.retry_budget = int(merged["retry_budget"])
        try:
            self._build()
        except Exception as exc:
            raise SetupFailed(str(exc)) from exc

    # -- construction

    def _build(self) -> None:
        unknown = sorted(set(self.faults) - FAULT_KEYS)
        if unknown:
            raise ValueError(f"unknown faults keys {unknown}")
        for led_cfg in self.spec.get("ledgers", []):
            ledger = lg.load_ledger(led_cfg, clock=self.clock)
            self.ledgers[ledger.config.ledger_id] = ledger
        for conn_cfg in self.spec.get("connectors", []):
            # Setup handshakes always run fault-free with the connector's
            # generous timeout; the scenario's (possibly tiny) timeouts apply
            # once faults arm.
            conn = conn_mod.load_connector(
                conn_cfg, self.ledgers, clock=self.clock, event_log=self.events
            )
            self.connectors[conn_cfg["name"]] = conn
            for account_id, amount in conn_cfg.get("funding", {}).items():
                conn.fund_ledger_account(account_id, int(amount))
        for peering_cfg in self.spec.get("peerings", []):
            self._wire_peering(peering_cfg)
        for route in self.spec.get("routes", []):
            conn = self.connectors[route["connector"]]
            conn.routes.insert(route["prefix"], route["peer"])
        for node_cfg in self.spec.get("nodes", []):
            self._wire_node(node_cfg)

    def _link_pair(self, name: str):
        a, b = link.memory_pair()
        wrapped = []
        for side, transport in (("a", a), ("b", b)):
            plan = link.FaultPlan(
                drop_rate=float(self.faults.get("drop_rate", 0.0)),
                duplicate_rate=float(self.faults.get("duplicate_rate", 0.0)),
                seed=_derive_seed(self.seed, name, side),
            )
            faulty = link.FaultyTransport(transport, plan, armed=False)
            self._fault_wrappers.append(faulty)
            wrapped.append(faulty)
        return wrapped[0], wrapped[1]

    def _wire_peering(self, cfg: dict) -> None:
        conn_a = self.connectors[cfg["from"]["connector"]]
        conn_b = self.connectors[cfg["to"]["connector"]]
        account_a = cfg["from"]["account"]
        account_b = cfg["to"]["account"]
        acc_a, acc_b = conn_a.accounts[account_a], conn_b.accounts[account_b]
        name = f"peering:{cfg['from']['connector']}:{cfg['to']['connector']}"
        settles = acc_a.outgoing_channel_amount or acc_b.outgoing_channel_amount
        _check_policies(name, acc_a.policy, acc_b.policy, settles)
        t_a, t_b = self._link_pair(name)
        conn_b.accept_transport(account_b, t_b)
        dialer = conn_a.dial(account_a, t_a, cfg["from"]["connector"], acc_b.secret)
        conn_a.establish_channel(dialer.peer_id)

    def _wire_node(self, cfg: dict) -> None:
        name = cfg["name"]
        conn = self.connectors[cfg["connector"]]
        account_id = cfg["account"]
        account = conn.accounts[account_id]
        ledger = self.ledgers[account.ledger_id]
        node_cfg = uplink.uplink_from_config({"name": name, **cfg["uplink"]})
        settles = node_cfg.channel_amount or account.outgoing_channel_amount
        _check_policies(f"node {name}", node_cfg.policy, account.policy, settles)
        node = uplink.UplinkNode(node_cfg, ledger, clock=self.clock, event_log=self.events)
        ledger.create_and_fund(node_cfg.ledger_account, node._pubkey, int(cfg.get("fund", 0)))
        server = stream.StreamServer(
            rng=Random(_derive_seed(self.seed, "stream", name)),
            component=f"stream:{name}",
            event_log=self.events,
        )
        node.attach_stream_server(server)
        t_node, t_conn = self._link_pair(f"uplink:{name}")
        conn.accept_transport(account_id, t_conn)
        node.connect(t_node)
        self.nodes[name] = node
        self.servers[name] = server

    def arm_faults(self) -> None:
        for node in self.nodes.values():
            node.request_timeout = self.packet_timeout
        for conn in self.connectors.values():
            conn.forward_timeout = self.forward_timeout
        for wrapper in self._fault_wrappers:
            wrapper.armed = True

    def disarm_faults(self) -> None:
        for wrapper in self._fault_wrappers:
            wrapper.armed = False

    def close(self) -> None:
        for node in self.nodes.values():
            node.close()
        for conn in self.connectors.values():
            for peer in conn.peers.values():
                if peer.endpoint is not None:
                    peer.endpoint.close()

    # -- checks

    def conservation_check(self) -> dict[str, bool]:
        """Per ledger: genesis + balances + open escrow equals the genesis total."""
        return {
            ledger_id: ledger.total_value() == ledger.config.genesis_balance
            for ledger_id, ledger in self.ledgers.items()
        }

    def atomicity_check(self) -> bool:
        """No hop relays a Fulfill it did not verify; no receiver credit
        without a condition match."""
        for event in self.events.events("fulfill_relayed"):
            if not event.detail.get("verified"):
                return False
        for event in self.events.events("receiver_credited"):
            if not event.detail.get("matched"):
                return False
        return True

    def settlement_locality_check(self) -> bool:
        """Every settlement claim travels a channel whose payer and payee are
        accounts of directly linked components on one ledger."""
        direct: set[frozenset] = set()
        for conn in self.connectors.values():
            for peer in conn.peers.values():
                if peer.peer_ledger_account:
                    direct.add(frozenset({peer.own_ledger_account, peer.peer_ledger_account}))
        for node in self.nodes.values():
            if node.parent.peer_ledger_account:
                direct.add(
                    frozenset(
                        {node.config.ledger_account, node.parent.peer_ledger_account}
                    )
                )
        for ledger in self.ledgers.values():
            for channel in ledger.channels():
                if channel.balance > 0:
                    if frozenset({channel.account, channel.destination}) not in direct:
                        return False
        return True

    def worth(self) -> dict[str, int]:
        """Economic position of each connector, summed naively across assets
        (meaningful for single-asset, rate-1 topologies)."""
        positions = {}
        for conn_name, conn in self.connectors.items():
            total = 0
            accounts = {
                (a.ledger_id, a.ledger_account) for a in conn.accounts.values()
            }
            for ledger_id, account_id in accounts:
                ledger = self.ledgers[ledger_id]
                total += ledger.account_info(account_id).balance
                for channel in ledger.channels(account_id):
                    if channel.account == account_id and channel.state != lg.CLOSED:
                        total += channel.amount - channel.balance
            for peer in conn.peers.values():
                total += peer.balance.value
            positions[conn_name] = total
        return positions


def _check_policies(what: str, a: BalancePolicy, b: BalancePolicy, settles: int) -> None:
    """Refuse two peers that settle (`settles`: either opens a channel) but
    whose policies would have one settle only once it owes more than the
    other lets it owe. Where nothing settles, the maxima alone bound it."""
    if settles and not check_peering_compat(a, b):
        raise ValueError(f"{what}: incompatible balance policies {a} and {b}")


def run_scenario(
    spec: dict,
    seed: int = 0,
    faults: Optional[dict] = None,
    timeouts: Optional[dict] = None,
) -> ScenarioReport:
    topology = Topology(spec, seed, faults=faults, timeouts=timeouts)
    report = ScenarioReport(name=spec.get("name", "unnamed"), seed=seed)
    worth_before = topology.worth() if spec.get("neutrality_check") else None
    topology.arm_faults()
    try:
        for action in spec.get("actions", []):
            _run_action(topology, action, report)
    finally:
        topology.disarm_faults()
    report.ledgers = {lid: led.snapshot() for lid, led in topology.ledgers.items()}
    report.checks = {
        f"conservation:{lid}": ok for lid, ok in topology.conservation_check().items()
    }
    report.checks["atomicity"] = topology.atomicity_check()
    report.checks["settlement_locality"] = topology.settlement_locality_check()
    if worth_before is not None:
        after = topology.worth()
        report.checks["connector_neutrality"] = all(after[name] >= worth_before[name] for name in after)
        report.checks["connector_neutrality_exact"] = after == worth_before
    report.events = topology.events.to_json()
    topology.close()
    return report


def _run_action(topology: Topology, action: dict, report: ScenarioReport) -> None:
    kind = action["action"]
    if kind == "start":
        return  # components start when the topology is built
    if kind == "pay":
        _run_pay(topology, action, report)
    elif kind == "advance-clock":
        topology.clock.advance(float(action["seconds"]))
    elif kind == "kill-link":
        topology.nodes[action["node"]].parent.endpoint.close()
    elif kind == "settle":
        topology.nodes[action["node"]].parent.settle_now()
    elif kind == "cleanup":
        result = topology.nodes[action["node"]].cleanup()
        report.payments.append({"action": "cleanup", "node": action["node"], **result})
    elif kind == "assert":
        check = action["check"]
        if check == "conservation":
            results = topology.conservation_check()
            if not all(results.values()):
                raise ScenarioAssertFailed("conservation", str(results))
        elif check == "atomicity":
            if not topology.atomicity_check():
                raise ScenarioAssertFailed("atomicity")
        else:
            raise ScenarioAssertFailed(check, "unknown check")
    else:
        raise SetupFailed(f"unknown action {kind!r}")


def _run_pay(topology: Topology, action: dict, report: ScenarioReport) -> None:
    payer = topology.nodes[action["from"]]
    payee_server = topology.servers[action["to"]]
    before = payee_server.total_received
    entry = {
        "action": "pay",
        "from": action["from"],
        "to": action["to"],
        "amount": int(action["amount"]),
    }
    try:
        result = spsp.pay(
            payee_server,
            int(action["amount"]),
            payer,
            max_packet_amount=int(action.get("maxPacket", 2**63)),
            packet_timeout=topology.packet_timeout,
            retry_budget=topology.retry_budget,
        )
        entry.update(result.to_json())
        entry["error"] = None
    except stream.PaymentError as exc:
        if exc.report is not None:
            entry.update(exc.report.to_json())
        entry["error"] = f"{type(exc).__name__}: {exc}"
    entry["delivered"] = payee_server.total_received - before
    report.payments.append(entry)


def builtin_scenario_names() -> list[str]:
    root = resources.files("ilpsim") / "scenarios"
    return sorted(entry.name[: -len(".json")] for entry in root.iterdir() if entry.name.endswith(".json"))


def load_builtin(name: str) -> dict:
    entry = resources.files("ilpsim") / "scenarios" / f"{name}.json"
    if not entry.is_file():
        raise FileNotFoundError(f"no built-in scenario named {name!r}")
    return json.loads(entry.read_text())
