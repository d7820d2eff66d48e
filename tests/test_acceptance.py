"""Acceptance gate: golden wire vectors, exact delivery, settlement policy,
conservation and atomicity under faults, middleware ordering, cross-currency
rounding bounds, and inspector parity."""

import base64
import time
from fractions import Fraction
from random import Random

import pytest
from importlib import resources

from ilpsim import btp, ilp, inspector, scenario, settlement, spsp
from ilpsim.settlement import BalancePolicy

import vectors

FAULT_TIMEOUTS = {"packet_timeout": 0.03, "forward_timeout": 0.03, "retry_budget": 5}
DROP_RATES = [0.0, 0.1, 0.5]
SEEDS = range(20)


def capture(name: str) -> bytes:
    text = (resources.files("ilpsim") / "captures" / f"{name}.hex").read_text()
    return bytes.fromhex("".join(text.split()))


# --- 1. golden codec vectors -------------------------------------------------


def test_golden_wire_vectors():
    started = time.monotonic()

    frame_bytes = capture("btp_prepare")
    assert frame_bytes.startswith(vectors.BTP_PREPARE_FRAME_PREFIX)
    frame = btp.decode_frame(frame_bytes)
    assert frame.frame_type == btp.TYPE_MESSAGE
    assert frame.request_id == vectors.BTP_PREPARE_REQUEST_ID
    assert [e.name for e in frame.entries] == ["ilp"]

    packet_bytes = frame.entries[0].data
    assert packet_bytes.startswith(vectors.PREPARE_ILP_PREFIX)
    packet = ilp.decode_packet(packet_bytes)
    assert packet.amount == 2500000000
    assert packet.expires_at == vectors.PREPARE_EXPIRY
    assert base64.b64encode(packet.condition).decode() == (
        "RQQr4c2YaHGVUMXeSvIc8etOeW6Vy9j2WlDZYKIZUbM="
    )
    assert str(packet.destination) == vectors.PREPARE_DESTINATION
    assert ilp.encode_packet(packet) == packet_bytes  # bit-exact round trip
    assert btp.encode_frame(frame) == frame_bytes

    fulfill_frame = btp.decode_frame(capture("btp_fulfill"))
    fulfill = ilp.decode_packet(fulfill_frame.entries[0].data)
    assert isinstance(fulfill, ilp.FulfillPacket)
    assert fulfill.fulfillment.startswith(bytes.fromhex("78d3d33e"))
    assert fulfill.fulfillment == vectors.FULFILL_FULFILLMENT

    assert time.monotonic() - started < 1.0


# --- 2. payment-pointer resolution -------------------------------------------


def test_payment_pointer_table():
    started = time.monotonic()
    assert spsp.resolve_pointer("$example.com") == "https://example.com/.well-known/pay"
    assert spsp.resolve_pointer("$example.com/invoices/12345") == (
        "https://example.com/invoices/12345"
    )
    assert spsp.resolve_pointer("$bob.example.com") == (
        "https://bob.example.com/.well-known/pay"
    )
    assert spsp.resolve_pointer("$example.com/bob") == "https://example.com/bob"
    assert time.monotonic() - started < 1.0


# --- 3. end-to-end exact delivery --------------------------------------------


def _two_node_spec(policy: dict, channel: int, fund: int, genesis: int = 10**9) -> dict:
    def account(name):
        return {
            "relation": "child",
            "assetCode": "XRP",
            "assetScale": 6,
            "balance": policy,
            "options": {"secret": f"{name}-pw"},
            "outgoingChannelAmount": channel,
            "ledger": "xrp",
            "ledgerAccount": "conn1_xrp",
        }

    def node(name):
        return {
            "name": name,
            "connector": "conn1",
            "account": name,
            "fund": fund,
            "uplink": {
                "name": name,
                "token": f"{name}-pw",
                "balance": policy,
                "ledgerAccount": name,
                "channelAmount": channel,
            },
        }

    return {
        "name": "two-node",
        "ledgers": [
            {"ledgerId": "xrp", "assetCode": "XRP", "assetScale": 6, "genesisBalance": genesis}
        ],
        "connectors": [
            {
                "name": "conn1",
                "ilp_address": "g.conn1",
                "backend": "one-to-one",
                "accounts": {"alice": account("alice"), "bob": account("bob")},
                "funding": {"alice": 10 * channel if channel else 0},
            }
        ],
        "nodes": [node("alice"), node("bob")],
    }


def test_rate_one_delivers_exactly_100_over_50_seeds():
    started = time.monotonic()
    spec = _two_node_spec(
        policy={"maximum": 10**6, "settleThreshold": -(10**6), "settleTo": 0},
        channel=0,
        fund=0,
    )
    for seed in range(50):
        topo = scenario.Topology(spec, seed=seed)
        try:
            report = spsp.pay(topo.servers["bob"], 100, topo.nodes["alice"])
            assert report.source_sent == 100
            assert topo.servers["bob"].total_received == 100
        finally:
            topo.close()
    assert time.monotonic() - started < 5.0


# --- 4. settlement policy ----------------------------------------------------


def test_streaming_20_units_triggers_one_claim_of_20():
    spec = _two_node_spec(
        policy={"maximum": 20, "settleThreshold": -15, "settleTo": 0},
        channel=100,
        fund=500,
    )
    topo = scenario.Topology(spec, seed=0)
    try:
        spsp.pay(topo.servers["bob"], 20, topo.nodes["alice"])
        alice = topo.nodes["alice"]
        assert alice.parent.balance.value == 0
        assert alice.parent.balance.highest_signed_cumulative == 20
        claims = [
            e for e in topo.events.events("settlement_claim")
            if e.component == "node:alice"
        ]
        assert len(claims) == 1
        assert claims[0].detail["cumulative"] == 20
        channel = topo.ledgers["xrp"].get_channel(alice.parent.balance.outgoing_channel)
        assert channel.balance == 20
    finally:
        topo.close()


# --- 5. peering compatibility ------------------------------------------------


def _simulate_unit_payments(payer: BalancePolicy, payee: BalancePolicy) -> bool:
    """Drive unit payments from payer to payee until the payer settles once or
    the payee's trust limit blocks; settling means the pairing can make
    progress in this direction."""
    debt = 0
    while True:
        if debt + 1 > payee.maximum:
            return False
        debt += 1
        if -debt <= payer.settle_threshold:
            return True


def test_peering_compat_matches_brute_force():
    """The check agrees with a unit-payment simulation at every sample,
    the boundary `settleThreshold == -maximum` and a maximum of 0 included."""
    rng = Random(5)
    boundary = 0
    for _ in range(1000):

        def sample():
            maximum = rng.randint(0, 60)
            threshold = -rng.randint(0, 60)
            return BalancePolicy(
                maximum=maximum,
                settle_threshold=threshold,
                settle_to=rng.randint(threshold, min(0, maximum)),
            )

        a, b = sample(), sample()
        simulated = _simulate_unit_payments(a, b) and _simulate_unit_payments(b, a)
        assert settlement.check_peering_compat(a, b) is simulated, (a, b)
        boundary += -a.settle_threshold == b.maximum or -b.settle_threshold == a.maximum
    assert boundary > 0


# --- 6 & 7. conservation and atomicity under faults --------------------------


@pytest.fixture(scope="module")
def fault_sweep():
    started = time.monotonic()
    reports = []
    for name in scenario.builtin_scenario_names():
        spec = scenario.load_builtin(name)
        for drop_rate in DROP_RATES:
            for seed in SEEDS:
                report = scenario.run_scenario(
                    spec,
                    seed=seed,
                    faults={"drop_rate": drop_rate},
                    timeouts=FAULT_TIMEOUTS,
                )
                reports.append((drop_rate, report))
    return reports, time.monotonic() - started


def test_conservation_across_all_scenarios_and_fault_rates(fault_sweep):
    reports, elapsed = fault_sweep
    assert len(reports) == 4 * len(DROP_RATES) * len(SEEDS)
    for _drop_rate, report in reports:
        for key, value in report.checks.items():
            if key.startswith("conservation:"):
                assert value is True, f"{report.name} seed {report.seed}: {key}"
    assert elapsed < 60.0


def test_atomicity_over_200_fault_injected_payments(fault_sweep):
    reports, _ = fault_sweep
    fault_payments = 0
    for drop_rate, report in reports:
        assert report.checks["atomicity"] is True, f"{report.name} seed {report.seed}"
        assert report.checks["settlement_locality"] is True
        if drop_rate > 0:
            fault_payments += sum(1 for p in report.payments if p["action"] == "pay")
    assert fault_payments >= 200


# --- 8. middleware order -----------------------------------------------------


def relay(conn, from_peer, prepare):
    """Run the connector's pipeline on the Prepare, as its link does."""
    return conn.handle_prepare(from_peer, prepare)


def test_f08_wins_over_t04():
    from datetime import timedelta

    from ilpsim import connector as conn_mod, ledger as lg, rates
    from ilpsim.clock import SimClock

    clock = SimClock()
    conn = conn_mod.Connector(
        "g.conn1",
        rates.RateBackend("one-to-one"),
        {"xrp": lg.Ledger(lg.LedgerConfig("XRP", 6, 10**6, ledger_id="xrp"))},
        clock=clock,
    )
    account = conn_mod.AccountConfig(
        account_id="alice",
        relation="child",
        asset_code="XRP",
        asset_scale=6,
        policy=BalancePolicy(maximum=10, settle_threshold=-5, settle_to=0),
        max_packet_amount=50,
        ledger_id="xrp",
        ledger_account="conn_xrp",
    )
    conn.add_account(account)
    peer = conn._new_peer(account, "alice")
    conn.register_child(peer)
    prepare = ilp.PreparePacket(
        destination=ilp.parse_address("g.conn1.alice.alice.x"),
        amount=5000,  # over both the packet cap (50) and the trust limit (10)
        condition=bytes(32),
        expires_at=clock.now() + timedelta(seconds=30),
    )
    response = relay(conn, peer, prepare)
    assert response.code == "F08"
    assert response.code != "T04"


# --- 9. cross-currency delivery ----------------------------------------------


def test_cross_currency_delivery_within_rounding_bound():
    report = scenario.run_scenario(scenario.load_builtin("xrp_eth_two_connectors"), seed=0)
    assert report.ok(), report.checks
    # oracle: XRP->XRP at 1, then XRP (scale 6) -> ETH (scale 9) at 0.0062,
    # computed exactly
    rate = Fraction(62, 10000) * Fraction(10**9, 10**6)
    for payment in report.payments:
        if payment["action"] != "pay":
            continue
        oracle = int(payment["amount"] * rate)
        assert abs(payment["delivered"] - oracle) <= payment["packets_fulfilled"]


# --- 10. inspector parity ----------------------------------------------------


def test_inspector_reports_every_logged_field():
    prepare = inspector.inspect_bytes(capture("btp_prepare"))
    assert prepare.fields["type"] == "6 (Message)"
    assert prepare.fields["requestId"] == 530421608
    assert prepare.fields["protocolNames"] == ["ilp"]
    flat = prepare.all_fields()
    assert flat["amount"] == 2500000000
    assert flat["expiresAt"] == "2019-06-19T09:43:01.509Z"
    assert flat["destination"] == vectors.PREPARE_DESTINATION

    fulfill = inspector.inspect_bytes(capture("btp_fulfill"))
    assert fulfill.fields["type"] == "1 (Response)"
    assert fulfill.fields["requestId"] == 1054375881
    assert fulfill.fields["protocolNames"] == ["ilp"]
    assert fulfill.all_fields()["fulfillment"] == base64.b64encode(
        vectors.FULFILL_FULFILLMENT
    ).decode()

    channel = inspector.inspect_bytes(capture("btp_channel_open"))
    assert channel.fields["type"] == "6 (Message)"
    assert channel.fields["requestId"] == 1890145753
    assert channel.fields["protocolNames"] == [
        "channel",
        "channel_signature",
        "fund_channel",
    ]
