from datetime import timedelta
from random import Random

import pytest

from ilpsim import ilp, stream
from ilpsim.clock import SimClock


@pytest.fixture
def server():
    s = stream.StreamServer(
        base_address=ilp.parse_address("g.conn1.ilsp_clients.mduni.local"), rng=Random(7)
    )
    return s


def loopback_sender(server, clock=None, **kwargs):
    creds = server.generate_credentials()
    clock = clock or SimClock()

    def send(prepare, _timeout):
        return server.handle_prepare(prepare)

    return stream.StreamSender(send, creds, clock=clock, **kwargs), creds


def test_generate_credentials_shape(server):
    creds = server.generate_credentials()
    assert server.base_address.is_prefix_of(creds.destination_account)
    assert len(creds.destination_account.segments) > len(server.base_address.segments)
    assert len(creds.shared_secret) == 32


def test_credentials_distinct_and_retrievable(server):
    a = server.generate_credentials()
    b = server.generate_credentials()
    assert a.destination_account != b.destination_account
    token = a.destination_account.segments[-1]
    assert server.secret_for(token) == a.shared_secret


def test_packet_condition_deterministic():
    pair1 = stream.packet_condition(b"\x01" * 32, b"contents")
    pair2 = stream.packet_condition(b"\x01" * 32, b"contents")
    assert pair1 == pair2
    fulfillment, condition = pair1
    assert ilp.condition_from_fulfillment(fulfillment) == condition


def test_packet_condition_sensitive_to_contents():
    _, c1 = stream.packet_condition(b"\x01" * 32, b"contents")
    _, c2 = stream.packet_condition(b"\x01" * 32, b"contentz")
    assert c1 != c2


def test_send_money_partitions_total(server):
    sender, _ = loopback_sender(server)
    report = sender.send_money(100, 40)
    # packets 40 + 40 + 20
    assert report.source_sent == 100
    assert report.packets_fulfilled == 3
    assert report.packets_rejected == 0
    assert server.total_received == 100


def test_send_money_zero(server):
    sender, _ = loopback_sender(server)
    report = sender.send_money(0, 40)
    assert report.source_sent == 0
    assert report.packets_fulfilled == 0


def test_receiver_recomputes_fulfillment(server):
    creds = server.generate_credentials()
    clock = SimClock()
    data = stream.packet_data(0)
    expires = clock.now() + timedelta(seconds=30)
    _, condition = stream.packet_condition(creds.shared_secret, data)
    prepare = ilp.PreparePacket(
        destination=creds.destination_account,
        amount=42,
        condition=condition,
        expires_at=expires,
        data=data,
    )
    response = server.handle_prepare(prepare)
    assert isinstance(response, ilp.FulfillPacket)
    assert ilp.verify_fulfillment(response.fulfillment, condition)
    assert server.total_received == 42


@pytest.mark.parametrize(
    "suffix,token",
    [("", None), ("x.tok", None), (".tok", "tok"), (".tok.deeper.still", "tok")],
    ids=["base", "sibling", "token", "deeper"],
)
def test_extract_token(server, suffix, token):
    assert server._extract_token(ilp.IlpAddress(server.base_address + suffix)) == token


def test_unknown_token_rejected_f06(server):
    clock = SimClock()
    prepare = ilp.PreparePacket(
        destination=server.base_address.with_suffix("nosuchtoken"),
        amount=5,
        condition=bytes(32),
        expires_at=clock.now() + timedelta(seconds=30),
    )
    response = server.handle_prepare(prepare)
    assert isinstance(response, ilp.RejectPacket)
    assert response.code == "F06"


def test_tampered_condition_rejected_f05(server):
    creds = server.generate_credentials()
    clock = SimClock()
    prepare = ilp.PreparePacket(
        destination=creds.destination_account,
        amount=5,
        condition=bytes(32),  # wrong on purpose
        expires_at=clock.now() + timedelta(seconds=30),
    )
    response = server.handle_prepare(prepare)
    assert response.code == "F05"
    assert server.total_received == 0


def test_duplicate_prepare_credits_once(server):
    creds = server.generate_credentials()
    clock = SimClock()
    data = stream.packet_data(0)
    expires = clock.now() + timedelta(seconds=30)
    _, condition = stream.packet_condition(creds.shared_secret, data)
    prepare = ilp.PreparePacket(
        destination=creds.destination_account,
        amount=10,
        condition=condition,
        expires_at=expires,
        data=data,
    )
    first = server.handle_prepare(prepare)
    second = server.handle_prepare(prepare)
    assert isinstance(first, ilp.FulfillPacket)
    assert isinstance(second, ilp.FulfillPacket)  # idempotent fulfill
    assert server.total_received == 10


def make_scripted_sender(script, **kwargs):
    """script: list of reject codes or 'ok'; repeats last element forever."""
    server = stream.StreamServer(base_address=ilp.parse_address("g.x"), rng=Random(1))
    creds = server.generate_credentials()
    calls = {"n": 0}

    def send(prepare, _timeout):
        action = script[min(calls["n"], len(script) - 1)]
        calls["n"] += 1
        if action == "ok":
            return server.handle_prepare(prepare)
        return ilp.RejectPacket(code=action, triggered_by=ilp.parse_address("g.conn"), message="")
    return stream.StreamSender(send, creds, **kwargs), server


def test_t04_reject_is_retried_at_same_size():
    sender, server = make_scripted_sender(["ok", "ok", "ok", "T04", "ok"])
    report = sender.send_money(50, 10)
    assert report.source_sent == 50
    assert report.packets_rejected == 1
    # the rejected 10 is sent again; only F08 changes the packet size
    assert report.packets_fulfilled == 5
    assert server.total_received == 50


def test_f08_halves_packet_size():
    sender, server = make_scripted_sender(["F08", "ok"])
    report = sender.send_money(40, 40)
    assert report.source_sent == 40
    # first attempt at 40 rejected, retried at 20 after halving
    assert report.packets_fulfilled == 2
    assert server.total_received == 40


def test_persistent_f02_unreachable():
    sender, _ = make_scripted_sender(["F02"], retry_budget=5)
    with pytest.raises(stream.Unreachable) as excinfo:
        sender.send_money(10, 10)
    assert excinfo.value.report.packets_rejected == 5


def test_persistent_r00_expired():
    sender, _ = make_scripted_sender(["R00"], retry_budget=4)
    with pytest.raises(stream.Expired):
        sender.send_money(10, 10)


def test_partial_failure_keeps_fulfilled_prefix():
    sender, server = make_scripted_sender(["ok", "ok", "R00"], retry_budget=3)
    with pytest.raises(stream.Expired) as excinfo:
        sender.send_money(100, 10)
    assert excinfo.value.report.source_sent == 20
    assert server.total_received == 20
