import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilpsim import ledger as lg
from ilpsim.clock import SimClock


@pytest.fixture
def xrp():
    return lg.Ledger(lg.LedgerConfig("XRP", 6, 10**12))


@pytest.fixture
def keys():
    return lg.generate_keypair()


def test_create_and_fund(xrp):
    acct = xrp.create_and_fund("rAlice", b"", 20000000)
    assert acct.balance == 20000000
    assert xrp.account_info(lg.GENESIS).balance == 10**12 - 20000000


def test_fund_zero(xrp):
    assert xrp.create_and_fund("rEmpty", b"", 0).balance == 0


def test_fund_more_than_genesis(xrp):
    with pytest.raises(lg.InsufficientGenesis):
        xrp.create_and_fund("rGreedy", b"", 10**12 + 1)


def test_duplicate_account(xrp):
    xrp.create_and_fund("rAlice", b"", 1)
    with pytest.raises(lg.DuplicateAccount):
        xrp.create_and_fund("rAlice", b"", 1)


def test_transfer_arithmetic(xrp):
    xrp.create_and_fund("rA", b"", 100)
    xrp.create_and_fund("rB", b"", 0)
    xrp.transfer("rA", "rB", 40)
    assert xrp.account_info("rA").balance == 60
    assert xrp.account_info("rB").balance == 40
    xrp.transfer("rA", "rB", 60)
    assert xrp.account_info("rA").balance == 0


def test_transfer_insufficient(xrp):
    xrp.create_and_fund("rA", b"", 100)
    xrp.create_and_fund("rB", b"", 0)
    with pytest.raises(lg.InsufficientFunds):
        xrp.transfer("rA", "rB", 101)
    assert xrp.account_info("rA").balance == 100
    assert xrp.account_info("rB").balance == 0


def test_open_channel_escrows(xrp, keys):
    _priv, pub = keys
    xrp.create_and_fund("rPayer", pub, 200000)
    xrp.create_and_fund("rPayee", b"", 0)
    chan = xrp.open_channel("rPayer", "rPayee", 100000, 3600, pub)
    assert chan.amount == 100000
    assert chan.balance == 0
    assert chan.settle_delay == 3600
    assert xrp.account_info("rPayer").balance == 100000


def test_open_channel_zero(xrp, keys):
    _priv, pub = keys
    xrp.create_and_fund("rPayer", pub, 10)
    xrp.create_and_fund("rPayee", b"", 0)
    chan = xrp.open_channel("rPayer", "rPayee", 0, 60, pub)
    assert chan.amount == 0


def test_verify_claim(xrp, keys):
    priv, pub = keys
    xrp.create_and_fund("rPayer", pub, 200000)
    xrp.create_and_fund("rPayee", b"", 0)
    chan = xrp.open_channel("rPayer", "rPayee", 100000, 3600, pub)
    claim = lg.sign_claim(priv, chan.channel_id, 50000)
    assert xrp.verify_claim(claim)

    too_big = lg.sign_claim(priv, chan.channel_id, 100001)
    assert not xrp.verify_claim(too_big)

    tampered = lg.Claim(claim.channel_id, 50001, claim.signature)
    assert not xrp.verify_claim(tampered)


def test_redeem_incremental_and_replay(xrp, keys):
    priv, pub = keys
    xrp.create_and_fund("rPayer", pub, 200)
    xrp.create_and_fund("rPayee", b"", 0)
    chan = xrp.open_channel("rPayer", "rPayee", 100, 60, pub)
    assert xrp.redeem_claim(lg.sign_claim(priv, chan.channel_id, 30)) == 30
    assert xrp.account_info("rPayee").balance == 30
    assert xrp.redeem_claim(lg.sign_claim(priv, chan.channel_id, 50)) == 20
    assert xrp.account_info("rPayee").balance == 50
    with pytest.raises(lg.StaleClaim):
        xrp.redeem_claim(lg.sign_claim(priv, chan.channel_id, 50))
    assert xrp.account_info("rPayee").balance == 50


def test_cooperative_close_refund(xrp, keys):
    priv, pub = keys
    xrp.create_and_fund("rPayer", pub, 100000)
    xrp.create_and_fund("rPayee", b"", 0)
    chan = xrp.open_channel("rPayer", "rPayee", 100000, 60, pub)
    xrp.redeem_claim(lg.sign_claim(priv, chan.channel_id, 30))
    xrp.close_channel(chan.channel_id, "rPayee")
    assert xrp.account_info("rPayer").balance == 99970
    assert xrp.account_info("rPayee").balance == 30
    with pytest.raises(lg.AlreadyClosed):
        xrp.close_channel(chan.channel_id, "rPayee")


def test_stranger_cannot_close_a_channel(xrp, keys):
    priv, pub = keys
    xrp.create_and_fund("rPayer", pub, 1000)
    xrp.create_and_fund("rPayee", b"", 0)
    xrp.create_and_fund("rStranger", b"", 0)
    chan = xrp.open_channel("rPayer", "rPayee", 500, 60, pub)
    with pytest.raises(lg.LedgerError, match="neither payer nor payee"):
        xrp.close_channel(chan.channel_id, "rStranger")
    assert chan.state == lg.OPEN
    assert xrp.redeem_claim(lg.sign_claim(priv, chan.channel_id, 300)) == 300
    assert xrp.account_info("rPayer").balance == 500


def test_payer_close_waits_settle_delay(keys):
    priv, pub = keys
    clock = SimClock()
    led = lg.Ledger(lg.LedgerConfig("XRP", 6, 10**9), clock=clock)
    led.create_and_fund("rPayer", pub, 100000)
    led.create_and_fund("rPayee", b"", 0)
    chan = led.open_channel("rPayer", "rPayee", 100000, 3600, pub)
    led.close_channel(chan.channel_id, "rPayer")
    assert chan.state == lg.CLOSING
    with pytest.raises(lg.LedgerError):
        led.finalize_closing(chan.channel_id)
    # claims can still be redeemed while closing
    led.redeem_claim(lg.sign_claim(priv, chan.channel_id, 40))
    clock.advance(3600)
    led.finalize_closing(chan.channel_id)
    assert chan.state == lg.CLOSED
    assert led.account_info("rPayer").balance == 100000 - 40
    assert led.account_info("rPayee").balance == 40


def test_close_fully_claimed_channel(xrp, keys):
    priv, pub = keys
    xrp.create_and_fund("rPayer", pub, 100)
    xrp.create_and_fund("rPayee", b"", 0)
    chan = xrp.open_channel("rPayer", "rPayee", 100, 60, pub)
    xrp.redeem_claim(lg.sign_claim(priv, chan.channel_id, 100))
    xrp.close_channel(chan.channel_id, "rPayee")
    assert xrp.account_info("rPayer").balance == 0
    assert xrp.account_info("rPayee").balance == 100


def test_conservation_across_operations(xrp, keys):
    priv, pub = keys
    total = xrp.total_value()
    xrp.create_and_fund("rA", pub, 5000)
    xrp.create_and_fund("rB", b"", 100)
    assert xrp.total_value() == total
    xrp.transfer("rA", "rB", 700)
    assert xrp.total_value() == total
    chan = xrp.open_channel("rA", "rB", 1000, 60, pub)
    assert xrp.total_value() == total
    xrp.redeem_claim(lg.sign_claim(priv, chan.channel_id, 400))
    assert xrp.total_value() == total
    xrp.close_channel(chan.channel_id, "rB")
    assert xrp.total_value() == total


@settings(max_examples=100, deadline=None)
@given(
    cumulative=st.integers(min_value=0, max_value=1000),
    bit=st.integers(min_value=0, max_value=8 * 64 - 1),
)
def test_claim_tamper_rejected(cumulative, bit):
    priv, pub = lg.generate_keypair()
    led = lg.Ledger(lg.LedgerConfig("XRP", 6, 10**9))
    led.create_and_fund("rP", pub, 2000)
    led.create_and_fund("rQ", b"", 0)
    chan = led.open_channel("rP", "rQ", 1000, 60, pub)
    claim = lg.sign_claim(priv, chan.channel_id, cumulative)
    assert led.verify_claim(claim)
    sig = bytearray(claim.signature)
    sig[bit // 8] ^= 1 << (bit % 8)
    assert not led.verify_claim(lg.Claim(chan.channel_id, cumulative, bytes(sig)))


def test_load_ledger_bootstrap():
    led = lg.load_ledger(
        {
            "assetCode": "ETH",
            "assetScale": 9,
            "genesisBalance": "1000000000000",
            "accounts": [{"accountId": "0xalice", "balance": "500"}],
        }
    )
    assert led.config.asset_code == "ETH"
    assert led.account_info("0xalice").balance == 500
