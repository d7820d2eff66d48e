import base64
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from ilpsim import ilp, scenario, spsp, stream


POINTER_ROWS = [
    ("$example.com", "https://example.com/.well-known/pay"),
    ("$example.com/invoices/12345", "https://example.com/invoices/12345"),
    ("$bob.example.com", "https://bob.example.com/.well-known/pay"),
    ("$example.com/bob", "https://example.com/bob"),
]


@pytest.mark.parametrize("pointer,url", POINTER_ROWS)
def test_resolve_pointer(pointer, url):
    assert spsp.resolve_pointer(pointer) == url


def test_resolve_pointer_http_scheme():
    assert spsp.resolve_pointer("$example.com", scheme="http") == (
        "http://example.com/.well-known/pay"
    )


def test_resolve_pointer_trailing_slash_means_well_known():
    assert spsp.resolve_pointer("$example.com/") == "https://example.com/.well-known/pay"


@pytest.mark.parametrize("bad", ["example.com", "$", "$/path", ""])
def test_malformed_pointers(bad):
    with pytest.raises(spsp.MalformedPointer):
        spsp.resolve_pointer(bad)


@pytest.fixture
def server():
    inner = stream.StreamServer(base_address=ilp.parse_address("g.node.local"))
    endpoint = spsp.SpspServer(inner, port=0)
    yield endpoint
    endpoint.close()


def test_query_returns_fresh_credentials(server):
    first = spsp.query(server.url)
    second = spsp.query(server.url)
    assert len(first.shared_secret) == 32
    assert first.destination_account != second.destination_account
    assert first.shared_secret != second.shared_secret
    creds = first.credentials()
    assert str(creds.destination_account) == first.destination_account


def test_query_wrong_path_unreachable(server):
    base = server.url.rsplit("/.well-known", 1)[0]
    with pytest.raises(spsp.Unreachable):
        spsp.query(base + "/nope")


def test_query_https_of_plain_http_server_unreachable(server):
    """The client speaks TLS to an https:// URL, so a plain-HTTP server
    cannot answer it."""
    with pytest.raises(spsp.Unreachable):
        spsp.query(server.url.replace("http://", "https://", 1), timeout=2)


def test_query_connection_refused_unreachable():
    with pytest.raises(spsp.Unreachable):
        spsp.query("http://127.0.0.1:1/", timeout=0.5)


def _static_endpoint(body: bytes, content_type="application/spsp4+json"):
    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt, *args):
            pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    return httpd, f"http://127.0.0.1:{httpd.server_address[1]}/"


@pytest.mark.parametrize(
    "body",
    [
        b"not json at all",
        json.dumps({"destination_account": "g.x"}).encode(),  # missing secret
        json.dumps(
            {
                "destination_account": "g.x",
                "shared_secret": base64.b64encode(b"short").decode(),
            }
        ).encode(),
    ],
)
def test_query_malformed_body_bad_response(body):
    httpd, url = _static_endpoint(body)
    try:
        with pytest.raises(spsp.BadResponse):
            spsp.query(url)
    finally:
        httpd.shutdown()
        httpd.server_close()


@pytest.fixture
def topo():
    t = scenario.Topology(scenario.load_builtin("xrp_single_connector"), seed=7)
    yield t
    t.close()


def test_serve_and_pay_over_http(topo):
    endpoint = spsp.SpspServer(topo.servers["bob"], port=0)
    try:
        report = spsp.pay(endpoint.url, 100, topo.nodes["alice"])
        assert report.source_sent == 100
        assert topo.servers["bob"].total_received == 100
    finally:
        endpoint.close()


def test_pay_zero_amount_is_trivial_success(topo):
    report = spsp.pay(topo.servers["bob"], 0, topo.nodes["alice"])
    assert report.source_sent == 0
    assert report.packets_fulfilled == 0


def test_serve_requires_connected_uplink():
    """A stream server gets its base address only once its node connects."""
    with pytest.raises(RuntimeError):
        spsp.SpspServer(stream.StreamServer())
