import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _simulate_unit_payments

from ilpsim import connector, link, rates
from ilpsim import ledger as lg
from ilpsim import settlement as stl
from ilpsim.link import PeerError
from ilpsim.peering import Peer, json_entry


def policy(maximum=20, threshold=-15, settle_to=0):
    return stl.BalancePolicy(maximum=maximum, settle_threshold=threshold, settle_to=settle_to)


def test_policy_invariant_enforced():
    with pytest.raises(ValueError):
        stl.BalancePolicy(maximum=10, settle_threshold=5, settle_to=0)


def test_policy_from_config_normalizes_positive_threshold():
    p = stl.policy_from_config(
        {"maximum": "20000000000", "settleThreshold": "50000000", "settleTo": "1000000"}
    )
    assert p.maximum == 20000000000
    assert p.settle_threshold == -50000000
    assert p.settle_to == 1000000


def test_peering_compat_worked_example():
    a = policy(maximum=20, threshold=-15)
    b = policy(maximum=20, threshold=-15)
    assert stl.check_peering_compat(a, b)


def test_peering_compat_violated():
    a = policy(maximum=20, threshold=-30, settle_to=0)
    b = policy(maximum=20, threshold=-15)
    assert not stl.check_peering_compat(a, b)


def test_peering_compat_all_zero():
    z = stl.BalancePolicy(0, 0, 0)
    assert not stl.check_peering_compat(z, z)


@settings(max_examples=1000, deadline=None)
@given(
    vals=st.tuples(
        st.integers(-100, 0), st.integers(0, 100), st.integers(-100, 0), st.integers(0, 100)
    )
)
def test_peering_compat_against_brute_force(vals):
    a_thr, a_max, b_thr, b_max = vals
    a = stl.BalancePolicy(a_max, a_thr, min(0, a_max))
    b = stl.BalancePolicy(b_max, b_thr, min(0, b_max))
    expected = _simulate_unit_payments(a, b) and _simulate_unit_payments(b, a)
    assert stl.check_peering_compat(a, b) == expected


@pytest.fixture
def channel_setup():
    priv, pub = lg.generate_keypair()
    led = lg.Ledger(lg.LedgerConfig("XRP", 6, 10**9))
    led.create_and_fund("me", pub, 10**6)
    led.create_and_fund("peer", b"", 0)
    chan = led.open_channel("me", "peer", 10**5, 60, pub)
    return led, chan, priv


def test_outgoing_settles_at_threshold(channel_setup):
    _led, chan, _priv = channel_setup
    bal = stl.BilateralBalance("peer", policy())
    bal.outgoing_channel = chan.channel_id
    cumulative = bal.on_outgoing_fulfilled(20, escrow=lambda c: c <= chan.amount)
    assert cumulative == 20
    assert bal.value == 0
    assert bal.highest_signed_cumulative == 20


def test_outgoing_below_threshold_no_claim(channel_setup):
    _led, chan, _priv = channel_setup
    bal = stl.BilateralBalance("peer", policy())
    bal.outgoing_channel = chan.channel_id
    assert bal.on_outgoing_fulfilled(10, escrow=lambda c: c <= chan.amount) is None
    assert bal.value == -10


def test_settle_to_restored_exactly():
    bal = stl.BilateralBalance("peer", policy(maximum=10**7, threshold=-50, settle_to=25))
    bal.outgoing_channel = "chan-x"
    cumulative = bal.on_outgoing_fulfilled(100)
    assert bal.value == 25
    assert cumulative == 25 - (-100)


def test_incoming_prepare_trust_bound():
    bal = stl.BilateralBalance("peer", policy(maximum=20, threshold=-15))
    bal.value = 19
    assert bal.on_incoming_prepare(1)
    assert bal.value == 20
    assert not bal.on_incoming_prepare(1)
    assert bal.value == 20


def test_incoming_rollback():
    bal = stl.BilateralBalance("peer", policy())
    bal.on_incoming_prepare(5)
    bal.rollback_incoming(5)
    assert bal.value == 0


def test_channel_exhausted_defers(channel_setup):
    _led, chan, _priv = channel_setup
    bal = stl.BilateralBalance("peer", policy(maximum=10**7, threshold=-10, settle_to=0))
    bal.outgoing_channel = chan.channel_id
    assert bal.on_outgoing_fulfilled(chan.amount + 1, escrow=lambda c: c <= chan.amount) is None
    assert bal.value == -(chan.amount + 1)
    assert bal.highest_signed_cumulative == 0
    # top up, then the next call makes the deferred claim
    cumulative = bal.on_outgoing_fulfilled(0, escrow=lambda c: c <= chan.amount * 2)
    assert cumulative == chan.amount + 1
    assert bal.value == 0
    assert bal.highest_signed_cumulative == chan.amount + 1


def test_receive_claim_mirrors_settlement(channel_setup):
    led, chan, priv = channel_setup
    bal = stl.BilateralBalance("me", policy())
    bal.incoming_channel = chan.channel_id
    bal.value = 15  # peer owes me 15
    claim = lg.sign_claim(priv, chan.channel_id, 15)
    assert bal.receive_claim(claim, led) == 15
    assert bal.value == 0
    assert led.account_info("peer").balance == 15  # redeemed eagerly
    # duplicate claim: delta 0, value unchanged
    assert bal.receive_claim(claim, led) == 0
    assert bal.value == 0


def test_receive_claim_unknown_channel(channel_setup):
    led, _chan, priv = channel_setup
    bal = stl.BilateralBalance("me", policy())
    bal.incoming_channel = "chan-other"
    claim = lg.sign_claim(priv, "chan-nonexistent", 5)
    with pytest.raises(lg.InvalidClaim):
        bal.receive_claim(claim, led)


def test_mirror_invariant_two_sides(channel_setup):
    led, chan, priv = channel_setup
    p = policy(maximum=1000, threshold=-15)
    alice = stl.BilateralBalance("bob", p)  # outgoing side
    bob = stl.BilateralBalance("alice", p)  # incoming side
    alice.outgoing_channel = chan.channel_id
    bob.incoming_channel = chan.channel_id
    for _ in range(4):
        amount = 5
        assert bob.on_incoming_prepare(amount)
        cumulative = alice.on_outgoing_fulfilled(amount, escrow=lambda c: c <= chan.amount)
        if cumulative is not None:
            claim = lg.sign_claim(priv, chan.channel_id, cumulative)
            bob.receive_claim(claim, led)
    assert alice.value + bob.value == 0


def test_accumulation_without_settlement():
    p = policy(maximum=10**6, threshold=-10**6 + 1, settle_to=0)
    sender = stl.BilateralBalance("peer", p)
    receiver = stl.BilateralBalance("peer", p)
    n, amount = 7, 3
    for _ in range(n):
        assert receiver.on_incoming_prepare(amount)
        sender.on_outgoing_fulfilled(amount)
    assert sender.value == -n * amount
    assert receiver.value == n * amount


class CountingLedger(lg.Ledger):
    """A ledger that counts how often the channel size is read, how often a
    channel is funded and how often a claim's signature is verified."""

    def __init__(self, config):
        super().__init__(config)
        self.get_channel_calls = 0
        self.fund_channel_calls = 0
        self.verify_claim_calls = 0

    def get_channel(self, channel_id):
        self.get_channel_calls += 1
        return super().get_channel(channel_id)

    def fund_channel(self, channel_id, additional):
        self.fund_channel_calls += 1
        return super().fund_channel(channel_id, additional)

    def verify_claim(self, claim):
        self.verify_claim_calls += 1
        return super().verify_claim(claim)


def test_connector_reads_an_announced_channel_once():
    """The connector checks an announced channel's payee and minimum size,
    and takes its payer, from one ledger read."""
    _priv, pub = lg.generate_keypair()
    led = CountingLedger(lg.LedgerConfig("XRP", 6, 10**9, ledger_id="xrp"))
    led.create_and_fund("alice", pub, 1000)
    conn = connector.Connector("g.conn1", rates.RateBackend("one-to-one"), {"xrp": led})
    conn.add_account(
        connector.AccountConfig(
            "alice", "child", "XRP", 6, policy(), secret="pw", min_incoming_channel_amount=100,
            ledger_id="xrp", ledger_account="conn1_xrp",
        )
    )
    to_alice, to_conn = link.memory_pair()
    conn.accept_transport("alice", to_conn)
    alice = link.LinkEndpoint(to_alice)
    alice.authenticate("alice", "pw")
    channel = led.open_channel("alice", "conn1_xrp", 100, 60, pub)
    led.get_channel_calls = 0
    alice.request([json_entry("channel", {"channel_id": channel.channel_id})])
    assert led.get_channel_calls == 1
    peer = conn.peers["alice.alice"]
    assert (peer.balance.incoming_channel, peer.peer_ledger_account) == (
        channel.channel_id, "alice",
    )
    alice.close()


class RecordingEndpoint:
    def __init__(self):
        self.sent = []

    def request(self, entries, timeout=5.0):
        self.sent.extend(entries)
        return ()


def sent_claims(endpoint):
    return [json.loads(e.data)["cumulative_amount"] for e in endpoint.sent if e.name == "claim"]


@pytest.fixture
def counted_peer():
    priv, pub = lg.generate_keypair()
    led = CountingLedger(lg.LedgerConfig("XRP", 6, 10**9))
    led.create_and_fund("me", pub, 15)
    led.create_and_fund("peer", b"", 0)
    peer = Peer("peer", stl.BilateralBalance("peer", policy(threshold=-10)), led, "me", priv)
    peer.peer_ledger_account = "peer"
    peer.open_outgoing_channel(15)
    peer.endpoint = RecordingEndpoint()
    led.get_channel_calls = 0
    return peer, led


def test_record_fulfilled_reads_channel_only_when_claim_due(counted_peer):
    peer, led = counted_peer
    for _ in range(9):
        peer.record_fulfilled(1)
    assert peer.balance.value == -9
    assert led.get_channel_calls == 0
    peer.record_fulfilled(1)  # crosses settle_threshold -10
    assert led.get_channel_calls == 1
    assert sent_claims(peer.endpoint) == [10]
    assert peer.balance.value == 0


def test_record_fulfilled_claim_past_escrow_deferred_then_topped_up(counted_peer):
    peer, led = counted_peer
    channel_id = peer.balance.outgoing_channel
    peer.record_fulfilled(12)
    assert sent_claims(peer.endpoint) == [12]
    # 24 > escrow 15 and "me" has no funds left for a top-up: deferred
    peer.record_fulfilled(12)
    assert peer.balance.value == -12
    assert peer.balance.highest_signed_cumulative == 12
    assert sent_claims(peer.endpoint) == [12]
    assert led.get_channel(channel_id).amount == 15
    led.transfer(lg.GENESIS, "me", 100)
    peer.record_fulfilled(1)
    assert peer.balance.highest_signed_cumulative == 25
    assert sent_claims(peer.endpoint) == [12, 25]
    assert led.get_channel(channel_id).amount == 25
    assert peer.balance.value == 0


def test_settle_now_without_outgoing_channel_stays_deferred():
    priv, pub = lg.generate_keypair()
    led = lg.Ledger(lg.LedgerConfig("XRP", 6, 10**9))
    led.create_and_fund("me", pub, 100)
    peer = Peer("peer", stl.BilateralBalance("peer", policy(threshold=-10)), led, "me", priv)
    peer.endpoint = RecordingEndpoint()
    peer.record_fulfilled(12)
    assert peer.balance.value == -12
    assert peer.endpoint.sent == []
    assert peer.settle_now() is None
    assert peer.balance.value == -12
    assert peer.balance.highest_signed_cumulative == 0
    assert peer.endpoint.sent == []


def test_deferred_claim_makes_no_top_up_once_no_claim_is_due():
    """A claim deferred for want of a channel leaves nothing behind: once an
    incoming Prepare brings the balance back above the threshold, fulfilled
    packets read no channel and fund none until a claim is due again."""
    priv, pub = lg.generate_keypair()
    led = CountingLedger(lg.LedgerConfig("XRP", 6, 10**9))
    led.create_and_fund("me", pub, 100)
    led.create_and_fund("peer", b"", 0)
    peer = Peer("peer", stl.BilateralBalance("peer", policy(threshold=-10)), led, "me", priv)
    peer.peer_ledger_account = "peer"
    peer.endpoint = RecordingEndpoint()
    peer.record_fulfilled(12)  # a claim is due, but there is no channel yet
    assert peer.endpoint.sent == []
    channel_id = peer.open_outgoing_channel(2).channel_id
    assert peer.balance.on_incoming_prepare(10)  # value -2: no claim due
    led.get_channel_calls = led.fund_channel_calls = 0
    for _ in range(3):
        peer.record_fulfilled(1)
    assert peer.balance.value == -5
    assert (led.get_channel_calls, led.fund_channel_calls) == (0, 0)
    assert peer.endpoint.sent == []
    assert led.get_channel(channel_id).amount == 2
    led.get_channel_calls = 0
    peer.record_fulfilled(5)  # value -10: the claim is due and tops up once
    assert (led.get_channel_calls, led.fund_channel_calls) == (1, 1)
    assert sent_claims(peer.endpoint) == [10]
    assert led.get_channel(channel_id).amount == 10
    assert peer.balance.value == 0


@pytest.fixture
def owed_50():
    """`me` is owed 50 by `peer`, which has a channel of 100 open to `me`."""
    priv, pub = lg.generate_keypair()
    led = CountingLedger(lg.LedgerConfig("XRP", 6, 10**9))
    led.create_and_fund("peer", pub, 1000)
    led.create_and_fund("me", b"", 0)
    chan = led.open_channel("peer", "me", 100, 60, pub)
    peer = Peer("peer", stl.BilateralBalance("peer", policy(maximum=100)), led, "me", priv)
    peer.balance.incoming_channel = chan.channel_id
    assert peer.balance.on_incoming_prepare(50)
    return peer, led, priv


def claim_entry(claim):
    return json.dumps(
        {
            "channel_id": claim.channel_id,
            "cumulative_amount": claim.cumulative_amount,
            "signature": claim.signature.hex(),
        }
    ).encode()


def assert_refused(peer, led, claim, value, last_seen, redeemed):
    """The claim is refused with F00, and the balance and ledger stay put."""
    with pytest.raises(PeerError) as refused:
        peer.handle_claim_entry(claim_entry(claim))
    assert refused.value.code == "F00"
    assert refused.value.message.startswith("invalid claim")
    assert peer.balance.value == value
    assert peer.balance.last_seen_incoming_cumulative == last_seen
    assert led.account_info("me").balance == redeemed


def forged(channel_id, cumulative):
    other_key, _ = lg.generate_keypair()
    return lg.sign_claim(other_key, channel_id, cumulative)


def test_valid_claim_verified_once(owed_50):
    peer, led, priv = owed_50
    claim = lg.sign_claim(priv, peer.balance.incoming_channel, 50)
    assert peer.balance.receive_claim(claim, led) == 50
    assert led.verify_claim_calls == 1
    assert peer.balance.value == 0
    assert led.account_info("me").balance == 50


def test_forged_claim_leaves_balance_unchanged(owed_50):
    peer, led, _priv = owed_50
    claim = forged(peer.balance.incoming_channel, 50)
    with pytest.raises(lg.InvalidClaim):
        peer.balance.receive_claim(claim, led)
    assert led.verify_claim_calls == 1
    assert_refused(peer, led, claim, value=50, last_seen=0, redeemed=0)


def test_forged_replay_and_backwards_claim_refused(owed_50):
    peer, led, priv = owed_50
    channel_id = peer.balance.incoming_channel
    peer.balance.receive_claim(lg.sign_claim(priv, channel_id, 50), led)
    assert_refused(peer, led, forged(channel_id, 50), value=0, last_seen=50, redeemed=50)
    with pytest.raises(lg.InvalidClaim, match="backwards"):
        peer.balance.receive_claim(lg.sign_claim(priv, channel_id, 30), led)
    assert_refused(
        peer, led, lg.sign_claim(priv, channel_id, 30), value=0, last_seen=50, redeemed=50
    )


def test_claim_on_closed_channel_leaves_debt_unpaid(owed_50):
    peer, led, priv = owed_50
    channel_id = peer.balance.incoming_channel
    led.close_channel(channel_id, "me")
    claim = lg.sign_claim(priv, channel_id, 50)
    with pytest.raises(lg.AlreadyClosed):
        peer.balance.receive_claim(claim, led)
    assert_refused(peer, led, claim, value=50, last_seen=0, redeemed=0)
