"""The one JSON-over-HTTP server, the TCP server it shares with BTP
listeners, and the two servers built on it: the ledger RPC and the SPSP
endpoint."""

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest
import requests

import ilpsim

from ilpsim import admin, ledger as lg, link, stream
from ilpsim.ilp import parse_address
from ilpsim.ledger_http import LedgerApiServer
from ilpsim.spsp import SpspServer
from test_scenario import recording_thread_starts


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


def used_admin_server():
    server = admin.AdminServer({("GET", "/info"): lambda _body: {}})
    admin.call_json("GET", server.url + "/info")
    return server


def used_tcp_listener():
    listener = link.TcpListener(0, lambda *args: True)
    client = link.LinkEndpoint(link.TcpTransport.connect("127.0.0.1", listener.port))
    client.authenticate("alice", "tok")
    client.close()
    return listener


@pytest.mark.parametrize("make", [used_admin_server, used_tcp_listener], ids=["http", "btp"])
def test_closed_server_refuses_connections(make):
    """Once a server has accepted a connection, its accept thread is back
    in accept when it closes; the port must stop listening all the same."""
    server = make()
    server.close()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", server.port), timeout=2).close()


def test_requests_run_on_the_shared_handler_threads(monkeypatch):
    monkeypatch.setattr(link, "_handler_threads", link._HandlerThreads())
    meet = threading.Barrier(2, timeout=5)
    s = admin.AdminServer(
        {("GET", "/info"): lambda _body: {}, ("GET", "/meet"): lambda _body: meet.wait()}
    )
    try:
        # Warm up two handler threads: a thread counts as idle only after it
        # has closed its connection, so the next request may come first.
        callers = [
            threading.Thread(target=admin.call_json, args=("GET", s.url + "/meet")) for _ in range(2)
        ]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in callers)
        with monkeypatch.context() as patch:
            started = recording_thread_starts(patch)
            for _ in range(20):
                assert admin.call_json("GET", s.url + "/info") == {}
        assert started == []
    finally:
        s.close()


def test_call_json_round_trip(server):
    assert admin.call_json("GET", server.url + "/info") == {"name": "node"}
    assert admin.call_json("POST", server.url + "/echo", {"amount": 5}) == {"got": {"amount": 5}}


@pytest.mark.parametrize(
    "method,path,status",
    [("GET", "/nope", 404), ("POST", "/info", 404), ("GET", "/fail", 500)],
)
def test_call_json_raises_on_status_other_than_200(server, method, path, status):
    with pytest.raises(admin.HttpError, match=f"answered {status}$"):
        admin.call_json(method, server.url + path)


@pytest.mark.parametrize("url", ["http://127.0.0.1:1/", "ftp://127.0.0.1/", "http:///path"])
def test_call_json_raises_when_nothing_answers(url):
    with pytest.raises(admin.HttpError):
        admin.call_json("GET", url, timeout=0.5)


def test_no_module_imports_requests():
    package = os.path.dirname(ilpsim.__file__)
    modules = sorted(name[:-3] for name in os.listdir(package) if name.endswith(".py"))
    code = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module('ilpsim.' + name)\n"
        "print('requests' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
