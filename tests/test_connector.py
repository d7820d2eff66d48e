import logging
from datetime import timedelta
from decimal import Decimal

import pytest

from ilpsim import connector as conn_mod
from ilpsim import ilp, ledger as lg, link, peering, rates, stream
from ilpsim.clock import SimClock
from ilpsim.events import EventLog


def make_ledger():
    return lg.Ledger(lg.LedgerConfig("XRP", 6, 10**9, ledger_id="xrp"))


def account(account_id, **over):
    base = dict(
        account_id=account_id,
        relation="child",
        asset_code="XRP",
        asset_scale=6,
        policy=conn_mod.BalancePolicy(maximum=1000, settle_threshold=-500, settle_to=0),
        ledger_id="xrp",
        ledger_account="conn_xrp",
    )
    base.update(over)
    return conn_mod.AccountConfig(**base)


class ScriptedEndpoint:
    """Stands in for a downstream link: answers every ilp entry per script."""

    def __init__(self, responder):
        self.responder = responder
        self.prepares = []
        self.sent = []  # the encoded Prepares, as received

    def request(self, entries, timeout=5.0):
        self.sent.append(entries[0].data)
        packet = ilp.decode_packet(entries[0].data)
        self.prepares.append(packet)
        response = self.responder(packet)
        if isinstance(response, Exception):
            raise response
        return (peering.ilp_entry(ilp.encode_packet(response)),)


@pytest.fixture
def clock():
    return SimClock()


def build(clock, backend=None, accounts=(), responder=None, **account_over):
    conn = conn_mod.Connector(
        "g.conn1",
        backend or rates.RateBackend("one-to-one"),
        {"xrp": make_ledger()},
        clock=clock,
        event_log=EventLog(),
        name="conn1",
    )
    src = account("alice", **account_over)
    conn.add_account(src)
    dst = account("bob")
    conn.add_account(dst)
    from_peer = conn._new_peer(src, "alice")
    to_peer = conn._new_peer(dst, "bob")
    conn.register_child(from_peer)
    conn.register_child(to_peer)
    to_peer.endpoint = ScriptedEndpoint(responder or (lambda p: fulfill_for(p)))
    return conn, from_peer, to_peer


SECRET = bytes(range(32))


def prepare_for(clock, amount, dest="g.conn1.bob.bob.x", lifetime=30, data=b""):
    data = data or stream.packet_data(0)
    _, condition = stream.packet_condition(SECRET, data)
    return ilp.PreparePacket(
        destination=ilp.parse_address(dest),
        amount=amount,
        condition=condition,
        expires_at=clock.now() + timedelta(seconds=lifetime),
        data=data,
    )


def relay(conn, from_peer, prepare):
    """Run the connector's pipeline on the encoded Prepare, as its link does,
    and decode the reply as the previous hop would."""
    reply = conn.handle_prepare(from_peer, ilp.encode_packet(prepare))
    return ilp.decode_packet(reply if isinstance(reply, bytes) else ilp.encode_packet(reply))


def fulfill_for(prepare):
    fulfillment, _ = stream.packet_condition(SECRET, prepare.data)
    return ilp.FulfillPacket(fulfillment=fulfillment)


def test_two_hop_fulfill_hashes_to_original_condition(clock):
    conn, from_peer, _ = build(clock)
    prepare = prepare_for(clock, 100)
    response = relay(conn, from_peer, prepare)
    assert isinstance(response, ilp.FulfillPacket)
    assert ilp.verify_fulfillment(response.fulfillment, prepare.condition)


def test_expired_packet_rejected_r00(clock):
    conn, from_peer, to_peer = build(clock)
    response = relay(conn, from_peer, prepare_for(clock, 100, lifetime=0.5))
    assert isinstance(response, ilp.RejectPacket)
    assert response.code == "R00"
    assert to_peer.endpoint.prepares == []


def test_f08_amount_too_large(clock):
    conn, from_peer, _ = build(clock, max_packet_amount=50)
    response = relay(conn, from_peer, prepare_for(clock, 51))
    assert response.code == "F08"


def test_f08_checked_before_t04(clock):
    # Over both the packet limit and the trust limit: the packet-size check
    # must win.
    conn, from_peer, _ = build(
        clock,
        max_packet_amount=50,
        policy=conn_mod.BalancePolicy(maximum=10, settle_threshold=-5, settle_to=0),
    )
    response = relay(conn, from_peer, prepare_for(clock, 5000))
    assert response.code == "F08"


def test_t04_over_trust_limit(clock):
    conn, from_peer, _ = build(clock)
    response = relay(conn, from_peer, prepare_for(clock, 1001))
    assert response.code == "T04"
    assert from_peer.balance.value == 0  # nothing accrued


def test_route_miss_f02_rolls_back(clock):
    conn, from_peer, _ = build(clock)
    response = relay(conn, from_peer, prepare_for(clock, 100, dest="g.nowhere.x"))
    assert response.code == "F02"
    assert from_peer.balance.value == 0


def test_forward_decrements_expiry_by_one_second(clock):
    conn, from_peer, to_peer = build(clock)
    prepare = prepare_for(clock, 100)
    relay(conn, from_peer, prepare)
    (forwarded,) = to_peer.endpoint.prepares
    assert prepare.expires_at - forwarded.expires_at == timedelta(seconds=1)


def test_conversion_applied_on_forward(clock):
    backend = rates.RateBackend("static-table", {("XRP", "ETH"): Decimal("0.0062")})
    conn = conn_mod.Connector("g.conn1", backend, {"xrp": make_ledger()}, clock=clock)
    big = conn_mod.BalancePolicy(maximum=10**9, settle_threshold=-(10**8), settle_to=0)
    conn.add_account(account("alice", policy=big))
    conn.add_account(account("esther", asset_code="ETH", asset_scale=9, policy=big))
    src = conn._new_peer(conn.accounts["alice"], "alice")
    dst = conn._new_peer(conn.accounts["esther"], "esther")
    conn.register_child(src)
    conn.register_child(dst)
    dst.endpoint = ScriptedEndpoint(fulfill_for)
    relay(conn, src, prepare_for(clock, 10_000_000, dest="g.conn1.esther.esther.x"))
    (forwarded,) = dst.endpoint.prepares
    assert forwarded.amount == 62_000_000


def test_converted_amount_over_64_bits_is_f08_and_rolls_back(clock):
    conn = conn_mod.Connector(
        "g.conn1", rates.RateBackend("one-to-one"), {"xrp": make_ledger()}, clock=clock
    )
    big = conn_mod.BalancePolicy(maximum=2**63, settle_threshold=-(10**8), settle_to=0)
    conn.add_account(account("alice", policy=big))
    conn.add_account(account("esther", asset_code="ETH", asset_scale=9, policy=big))
    src = conn._new_peer(conn.accounts["alice"], "alice")
    dst = conn._new_peer(conn.accounts["esther"], "esther")
    conn.register_child(src)
    conn.register_child(dst)
    dst.endpoint = ScriptedEndpoint(fulfill_for)
    # 2^60 at scale 6 is 2^60 * 1000 at scale 9: more than an ILP amount holds
    response = relay(conn, src, prepare_for(clock, 2**60, dest="g.conn1.esther.esther.x"))
    assert response.code == "F08"
    assert str(response.triggered_by) == "g.conn1"
    assert src.balance.value == 0
    assert dst.endpoint.prepares == []


def test_missing_rate_f02(clock):
    backend = rates.RateBackend("static-table", {})
    conn = conn_mod.Connector("g.conn1", backend, {"xrp": make_ledger()}, clock=clock)
    conn.add_account(account("alice"))
    conn.add_account(account("esther", asset_code="ETH", asset_scale=9))
    src = conn._new_peer(conn.accounts["alice"], "alice")
    dst = conn._new_peer(conn.accounts["esther"], "esther")
    conn.register_child(src)
    conn.register_child(dst)
    response = relay(conn, src, prepare_for(clock, 10, dest="g.conn1.esther.esther.x"))
    assert response.code == "F02"
    assert src.balance.value == 0


def test_bad_downstream_fulfillment_becomes_f05(clock):
    bogus = ilp.FulfillPacket(fulfillment=bytes(32))
    conn, from_peer, _ = build(clock, responder=lambda p: bogus)
    response = relay(conn, from_peer, prepare_for(clock, 100))
    assert response.code == "F05"
    assert from_peer.balance.value == 0
    events = [e for e in conn.events.events("fulfill_relayed")]
    assert events and events[0].detail["verified"] is False


def test_downstream_reject_relayed_and_rolled_back(clock):
    reject = ilp.RejectPacket(
        code="T04", triggered_by=ilp.parse_address("g.conn1"), message="no"
    )
    conn, from_peer, _ = build(clock, responder=lambda p: reject)
    response = relay(conn, from_peer, prepare_for(clock, 100))
    assert response.code == "T04"
    assert from_peer.balance.value == 0


class RawReplyEndpoint(ScriptedEndpoint):
    """Answers every ilp entry with the same raw bytes."""

    def __init__(self, reply: bytes):
        super().__init__(None)
        self.reply = reply

    def request(self, entries, timeout=5.0):
        self.prepares.append(ilp.decode_packet(entries[0].data))
        return (peering.ilp_entry(self.reply),)


def test_malformed_downstream_reject_becomes_t00_and_rolls_back(clock):
    # A Reject whose triggered_by is not ASCII: type 14, F02, var(address),
    # empty message, empty data.
    address = b"g.c\xffnn9"
    contents = b"F02" + bytes([len(address)]) + address + b"\x00\x00"
    conn, from_peer, to_peer = build(clock)
    to_peer.endpoint = RawReplyEndpoint(bytes([ilp.TYPE_REJECT, len(contents)]) + contents)
    response = relay(conn, from_peer, prepare_for(clock, 100))
    assert isinstance(response, ilp.RejectPacket)
    assert response.code == "T00"
    assert str(response.triggered_by) == "g.conn1"
    assert from_peer.balance.value == 0


@pytest.mark.parametrize(
    "answer",
    [
        lambda clock: ilp.encode_packet(prepare_for(clock, 100)),
        lambda _clock: ilp.encode_packet(ilp.FulfillPacket(bytes(32)))[:-1],
        lambda _clock: bytes.fromhex("0d0567617262616765"),
    ],
    ids=["prepare", "truncated_fulfill", "not_an_ilp_packet"],
)
def test_bad_downstream_answer_becomes_t00_and_rolls_back(clock, answer):
    conn, from_peer, to_peer = build(clock)
    to_peer.endpoint = RawReplyEndpoint(answer(clock))
    response = relay(conn, from_peer, prepare_for(clock, 100))
    assert (response.code, str(response.triggered_by)) == ("T00", "g.conn1")
    assert from_peer.balance.value == 0
    assert to_peer.balance.value == 0


def contents_offset(encoded: bytes) -> int:
    """Where a packet's contents start: after its type byte and length prefix."""
    return 2 if encoded[1] < 128 else 2 + (encoded[1] & 0x7F)


@pytest.mark.parametrize("data_len", [0, 300], ids=["short", "long_length_prefix"])
def test_forwarded_bytes_differ_only_in_amount_and_expiry(clock, data_len):
    backend = rates.RateBackend("static-table", {("XRP", "ETH"): Decimal("0.0062")})
    conn = conn_mod.Connector("g.conn1", backend, {"xrp": make_ledger()}, clock=clock)
    big = conn_mod.BalancePolicy(maximum=10**9, settle_threshold=-(10**8), settle_to=0)
    conn.add_account(account("alice", policy=big))
    conn.add_account(account("esther", asset_code="ETH", asset_scale=9, policy=big))
    src = conn._new_peer(conn.accounts["alice"], "alice")
    dst = conn._new_peer(conn.accounts["esther"], "esther")
    conn.register_child(src)
    conn.register_child(dst)
    dst.endpoint = ScriptedEndpoint(fulfill_for)
    prepare = prepare_for(
        clock, 10_000_000, dest="g.conn1.esther.esther.x", data=bytes(range(256))[:data_len]
    )
    incoming = ilp.encode_packet(prepare)
    relay(conn, src, prepare)
    (outgoing,) = dst.endpoint.sent
    head = contents_offset(incoming)
    assert len(outgoing) == len(incoming)
    assert {i for i, (a, b) in enumerate(zip(incoming, outgoing)) if a != b} <= set(
        range(head, head + 25)
    )
    assert outgoing[head : head + 8] == (62_000_000).to_bytes(8, "big")
    assert ilp.decode_packet(outgoing) == ilp.PreparePacket(
        destination=prepare.destination,
        amount=62_000_000,
        condition=prepare.condition,
        expires_at=prepare.expires_at - timedelta(seconds=1),
        data=prepare.data,
    )


def test_relayed_fulfill_reaches_the_sender_as_the_receiver_encoded_it(clock):
    conn, from_peer, to_peer = build(clock)
    prepare = prepare_for(clock, 100)
    fulfillment = fulfill_for(prepare).fulfillment
    # A valid Fulfill with a long-form length prefix, which re-encoding would
    # shorten: contents of 32 + 1 + 3 bytes behind 0x81 0x24.
    contents = fulfillment + b"\x03abc"
    encoded = bytes([ilp.TYPE_FULFILL, 0x81, len(contents)]) + contents
    assert ilp.encode_packet(ilp.decode_packet(encoded)) != encoded
    to_peer.endpoint = RawReplyEndpoint(encoded)
    sender_side, connector_side = link.memory_pair()
    conn._serve(from_peer, link.LinkEndpoint(connector_side, authenticated=True))
    sender = link.LinkEndpoint(sender_side, authenticated=True)
    (reply,) = sender.request([peering.ilp_entry(ilp.encode_packet(prepare))], timeout=5)
    assert reply.data == encoded
    assert from_peer.balance.value == 100


def test_downstream_timeout_becomes_r00(clock):
    conn, from_peer, _ = build(clock, responder=lambda p: link.Timeout("slow"))
    response = relay(conn, from_peer, prepare_for(clock, 100))
    assert response.code == "R00"
    assert from_peer.balance.value == 0


def test_successful_relay_accrues_balances(clock):
    conn, from_peer, to_peer = build(clock)
    relay(conn, from_peer, prepare_for(clock, 100))
    assert from_peer.balance.value == 100  # alice owes us
    assert to_peer.balance.value == -100  # we owe bob


def test_child_address_assignment(clock):
    conn, from_peer, _ = build(clock)
    assert str(from_peer.child_address) == "g.conn1.alice.alice"


def test_duplicate_child_rejected(clock):
    conn, from_peer, _ = build(clock)
    dup = conn_mod.ConnectorPeer(
        "x", from_peer.account, "alice",
        balance=from_peer.balance, ledger=from_peer.ledger,
        own_ledger_account="conn_xrp", signing_key=conn.signing_keys["xrp"],
    )
    with pytest.raises(conn_mod.DuplicateChild):
        conn.register_child(dup)


def test_dial_after_a_refused_dial_succeeds(clock):
    def connector(name, peer_account):
        conn = conn_mod.Connector(
            f"g.{name}", rates.RateBackend("one-to-one"), {"xrp": make_ledger()},
            clock=clock, event_log=EventLog(), name=name,
        )
        conn.add_account(account(peer_account, relation="peer", secret="tok"))
        return conn

    conn1, conn2 = connector("conn1", "b"), connector("conn2", "a")
    t_a, t_b = link.memory_pair()
    conn2.accept_transport("a", t_b)
    with pytest.raises(link.AuthFailed):
        conn1.dial("b", t_a, "conn1", "wrong")
    assert conn1.peers == {}
    t_a, t_b = link.memory_pair()
    conn2.accept_transport("a", t_b)
    peer = conn1.dial("b", t_a, "conn1", "tok")
    assert list(conn1.peers.values()) == [peer]
    assert not peer.endpoint.closed.is_set()
    (answer,) = peer.endpoint.request([peering.json_entry("ledger_identity", {})])
    assert answer.name == "ledger_identity"


def test_load_connector_warns_only_for_unknown_keys(caplog):
    config = {
        "ilp_address": "g.conn1",
        "backend": "one-to-one",
        "ledgers": {"xrp": "http://127.0.0.1:1"},
        "btpPort": 7768,
    }
    with caplog.at_level(logging.WARNING, logger="ilpsim.connector"):
        conn_mod.load_connector(config, {})
    assert caplog.records == []
    with caplog.at_level(logging.WARNING, logger="ilpsim.connector"):
        conn_mod.load_connector({**config, "btpPrt": 7768}, {})
    assert [r.getMessage() for r in caplog.records] == [
        "connector config: ignoring unknown key 'btpPrt'"
    ]
