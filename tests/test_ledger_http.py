import json

import pytest

from ilpsim import admin, ledger as lg
from ilpsim import settlement as stl
from ilpsim.ledger_http import LedgerApiServer, RemoteLedger


@pytest.fixture
def backend():
    ledger = lg.Ledger(lg.LedgerConfig("XRP", 6, 10**6, ledger_id="xrp"))
    server = LedgerApiServer(ledger, port=0)
    remote = RemoteLedger(server.url)
    yield ledger, remote
    server.close()


def test_describe_populates_config(backend):
    _, remote = backend
    assert remote.config.asset_code == "XRP"
    assert remote.config.asset_scale == 6
    assert remote.config.genesis_balance == 10**6
    assert remote.config.ledger_id == "xrp"


def test_account_round_trip(backend):
    local, remote = backend
    _, pub = lg.generate_keypair()
    account = remote.create_and_fund("alice", pub, 500)
    assert account.balance == 500
    assert account.public_key == pub
    assert local.account_info("alice").balance == 500
    assert remote.account_info("alice").balance == 500


def test_transfer_and_total_value(backend):
    local, remote = backend
    _, pub = lg.generate_keypair()
    remote.create_and_fund("alice", pub, 500)
    remote.create_and_fund("bob", pub, 0)
    txn = remote.transfer("alice", "bob", 123)
    assert txn.startswith("txn-")
    assert remote.account_info("bob").balance == 123
    assert remote.total_value() == 10**6
    assert remote.snapshot() == local.snapshot()


def test_channel_lifecycle_with_claims(backend):
    local, remote = backend
    priv, pub = lg.generate_keypair()
    remote.create_and_fund("alice", pub, 500)
    remote.create_and_fund("bob", pub, 0)
    channel = remote.open_channel("alice", "bob", 300, settle_delay=10, public_key=pub)
    assert channel.state == lg.OPEN
    assert remote.account_info("alice").balance == 200

    claim = lg.sign_claim(priv, channel.channel_id, 120)
    assert remote.verify_claim(claim) is True
    assert remote.redeem_claim(claim) == 120
    assert remote.account_info("bob").balance == 120

    topped = remote.fund_channel(channel.channel_id, 50)
    assert topped.amount == 350
    listed = remote.channels("alice")
    assert [c.channel_id for c in listed] == [channel.channel_id]

    closed = remote.close_channel(channel.channel_id, "bob")  # payee close
    assert closed.state == lg.CLOSED
    assert remote.account_info("alice").balance == 380  # 150 escrow refund + 50 top-up back


def test_payer_close_goes_through_delay(backend):
    local, remote = backend
    _, pub = lg.generate_keypair()
    remote.create_and_fund("alice", pub, 500)
    remote.create_and_fund("bob", pub, 0)
    channel = remote.open_channel("alice", "bob", 300, settle_delay=3600, public_key=pub)
    closing = remote.close_channel(channel.channel_id, "alice")
    assert closing.state == lg.CLOSING
    assert closing.close_after is not None
    with pytest.raises(lg.LedgerError):
        remote.finalize_closing(channel.channel_id)
    local.clock.advance(3601)
    assert remote.finalize_closing(channel.channel_id).state == lg.CLOSED


def test_errors_map_to_ledger_exceptions(backend):
    _, remote = backend
    _, pub = lg.generate_keypair()
    with pytest.raises(lg.UnknownAccount):
        remote.account_info("ghost")
    with pytest.raises(lg.UnknownChannel):
        remote.get_channel("chan-missing")
    remote.create_and_fund("alice", pub, 10)
    with pytest.raises(lg.DuplicateAccount):
        remote.create_and_fund("alice", pub, 10)
    with pytest.raises(lg.InsufficientGenesis):
        remote.create_and_fund("whale", pub, 10**9)


def test_stale_claim_surfaces(backend):
    _, remote = backend
    priv, pub = lg.generate_keypair()
    remote.create_and_fund("alice", pub, 500)
    remote.create_and_fund("bob", pub, 0)
    channel = remote.open_channel("alice", "bob", 300, settle_delay=10, public_key=pub)
    remote.redeem_claim(lg.sign_claim(priv, channel.channel_id, 100))
    with pytest.raises(lg.StaleClaim):
        remote.redeem_claim(lg.sign_claim(priv, channel.channel_id, 100))
    with pytest.raises(lg.InvalidClaim):
        remote.redeem_claim(lg.Claim(channel.channel_id, 200, bytes(64)))


def test_unknown_method_rejected(backend):
    _, remote = backend
    with pytest.raises(lg.LedgerError):
        remote._call("drop_tables")


class CountingRemoteLedger(RemoteLedger):
    """A remote ledger that records the method of each RPC it makes."""

    def __init__(self, base_url):
        self.rpcs = []
        super().__init__(base_url)

    def _call(self, method, **kwargs):
        self.rpcs.append(method)
        return super()._call(method, **kwargs)


def test_claim_over_http_forged_refused_valid_in_one_rpc(backend):
    local, remote = backend
    priv, pub = lg.generate_keypair()
    local.create_and_fund("alice", pub, 500)
    local.create_and_fund("bob", b"", 0)
    channel = local.open_channel("alice", "bob", 300, settle_delay=10, public_key=pub)
    counted = CountingRemoteLedger(remote.base_url)
    balance = stl.BilateralBalance(
        "alice", stl.BalancePolicy(maximum=300, settle_threshold=-10, settle_to=0)
    )
    balance.incoming_channel = channel.channel_id
    assert balance.on_incoming_prepare(120)

    other_key, _ = lg.generate_keypair()
    with pytest.raises(lg.InvalidClaim):
        balance.receive_claim(lg.sign_claim(other_key, channel.channel_id, 120), counted)
    assert balance.value == 120
    assert local.account_info("bob").balance == 0

    counted.rpcs.clear()
    assert balance.receive_claim(lg.sign_claim(priv, channel.channel_id, 120), counted) == 120
    assert counted.rpcs == ["redeem_claim"]
    assert balance.value == 0
    assert local.account_info("bob").balance == 120


def test_server_error_raises():
    def rpc(body):
        if json.loads(body)["method"] == "describe":
            return {"result": {"asset_code": "XRP", "asset_scale": 6,
                               "genesis_balance": 1, "ledger_id": "xrp"}}
        raise RuntimeError("ledger broke")

    server = admin.AdminServer({("POST", "/rpc"): rpc})
    try:
        remote = RemoteLedger(server.url)
        with pytest.raises(admin.HttpError, match="answered 500$"):
            remote.total_value()
    finally:
        server.close()
