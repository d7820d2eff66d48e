"""The one JSON-over-HTTP server and the two servers built on it: the
ledger RPC and the SPSP endpoint."""

import json
import time

import pytest
import requests

from ilpsim import admin, ledger as lg, stream
from ilpsim.ilp import parse_address
from ilpsim.ledger_http import LedgerApiServer
from ilpsim.spsp import SpspServer


def fail(_body):
    raise RuntimeError("route broke")


@pytest.fixture(scope="module")
def server():
    s = admin.AdminServer(
        {
            ("GET", "/info"): lambda _body: {"name": "node"},
            ("POST", "/echo/"): lambda body: {"got": json.loads(body)},
            ("GET", "/"): lambda _body: ["root"],
            ("GET", "/fail"): fail,
        }
    )
    yield s
    s.close()


def test_get_route(server):
    resp = requests.get(server.url + "/info", timeout=5)
    assert resp.status_code == 200
    assert resp.headers["Content-Type"] == "application/json"
    assert resp.json() == {"name": "node"}


def test_post_route_takes_the_body(server):
    resp = requests.post(server.url + "/echo", json={"amount": 5}, timeout=5)
    assert resp.status_code == 200
    assert resp.json() == {"got": {"amount": 5}}


def test_trailing_slash_ignored(server):
    assert requests.get(server.url + "/info/", timeout=5).json() == {"name": "node"}
    assert requests.post(server.url + "/echo/", json=1, timeout=5).json() == {"got": 1}
    assert requests.get(server.url + "/", timeout=5).json() == ["root"]


def test_unknown_route_404(server):
    assert requests.get(server.url + "/nope", timeout=5).status_code == 404
    assert requests.get(server.url + "/echo", timeout=5).status_code == 404  # POST-only
    assert requests.post(server.url + "/info", timeout=5).status_code == 404  # GET-only


def test_failing_route_500_with_error(server):
    resp = requests.get(server.url + "/fail", timeout=5)
    assert resp.status_code == 500
    assert resp.headers["Content-Type"] == "application/json"
    assert resp.json() == {"error": "route broke"}


def test_ledger_error_is_200_with_error_body():
    ledger = lg.Ledger(lg.LedgerConfig("XRP", 6, 1000, ledger_id="xrp"))
    server = LedgerApiServer(ledger)
    try:
        resp = requests.post(
            server.url + "/rpc",
            json={"method": "get_channel", "kwargs": {"channel_id": "nope"}},
            timeout=5,
        )
        assert resp.status_code == 200
        assert resp.headers["Content-Type"] == "application/json"
        assert resp.json()["error"]["type"] == "UnknownChannel"
        bad = requests.post(server.url + "/rpc", data=b"not json", timeout=5)
        assert bad.status_code == 200
        assert bad.json()["error"]["type"] == "LedgerError"
        assert requests.post(server.url + "/other", json={}, timeout=5).status_code == 404
    finally:
        server.close()


def test_spsp_content_type():
    inner = stream.StreamServer()
    inner.base_address = parse_address("g.conn1.bob.bob.local")
    server = SpspServer(inner)
    try:
        resp = requests.get(server.url, timeout=5)
        assert resp.status_code == 200
        assert resp.headers["Content-Type"] == "application/spsp4+json"
        assert resp.json()["destination_account"].startswith("g.conn1.bob.bob.local.")
    finally:
        server.close()


def test_close_is_quick():
    s = admin.AdminServer({("GET", "/info"): lambda _body: {}})
    started = time.monotonic()
    s.close()
    assert time.monotonic() - started < 0.25
