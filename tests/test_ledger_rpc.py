"""The ledger RPC's error answers and method whitelist, against a fake server
that answers whatever the test tells it to."""

import logging

import pytest

from ilpsim import admin, ledger as lg
from ilpsim.ledger_http import LedgerApiServer, RemoteLedger

DESCRIBE = {"asset_code": "XRP", "asset_scale": 6, "genesis_balance": 1, "ledger_id": "xrp"}


@pytest.fixture
def answering():
    """Starts a fake ledger server whose every call but `describe` gets `error`."""
    servers = []

    def start(error):
        def rpc(body):
            if b'"describe"' in body:
                return {"result": DESCRIBE}
            return {"error": error}

        servers.append(admin.AdminServer({("POST", "/rpc"): rpc}))
        return RemoteLedger(servers[-1].url)

    yield start
    for server in servers:
        server.close()


@pytest.mark.parametrize("type_name", ["GENESIS", "Ledger", "generate_keypair", "KeyError", ""])
def test_error_type_that_is_no_ledger_error_raises_ledger_error(answering, type_name):
    remote = answering({"type": type_name, "message": "boom"})
    with pytest.raises(lg.LedgerError, match="^boom$") as info:
        remote.total_value()
    assert type(info.value) is lg.LedgerError


@pytest.mark.parametrize("method", ["_finalize", "_get_channel", "__init__", "config", "clock"])
def test_only_mirrored_ledger_methods_are_callable(method):
    ledger = lg.Ledger(lg.LedgerConfig("XRP", 6, 10**6, ledger_id="xrp"))
    server = LedgerApiServer(ledger, port=0)
    try:
        with pytest.raises(lg.LedgerError, match="unknown method"):
            RemoteLedger(server.url)._call(method)
    finally:
        server.close()


def test_bad_arguments_answer_a_ledger_error(caplog):
    ledger = lg.Ledger(lg.LedgerConfig("XRP", 6, 10**6, ledger_id="xrp"))
    server = LedgerApiServer(ledger, port=0)
    try:
        remote = RemoteLedger(server.url)
        with pytest.raises(lg.LedgerError):
            remote._call("transfer", src="genesis")
        with pytest.raises(lg.LedgerError):
            remote._call("create_and_fund", account_id="a", public_key="zz", amount=1)
        assert remote.total_value() == 10**6
    finally:
        server.close()
    # A client's mistake is answered, not logged as a fault of the ledger.
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
