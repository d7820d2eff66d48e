"""The one JSON-over-HTTP server and the one client: the admin API of
running components, the ledger RPC (`ledger_http`) and the SPSP endpoint
(`spsp`) are served and called through them.

Routes map (method, path) to callables that take the request body (bytes,
empty for a GET) and return a JSON-able value, sent with status 200. A
trailing slash on the path is ignored; an unknown route gets 404 and a
route that raises gets 500 with {"error": message}. HTTP/1.0, one request
per connection; the server is a `link.TcpServer`, and each connection is
served on `link`'s shared handler threads. Queries from the CLI attach here.

`call_json` is the client, on `http.client`: one connection per call,
closed after the answer, TLS for an https:// URL. There is no keep-alive:
the server writes headers and body in two sends, and on a kept-alive
connection the second waits out the client's delayed ACK, about 40 ms."""

from __future__ import annotations

import http.client
import json
import logging
import socket
from http.server import BaseHTTPRequestHandler
from typing import Any, Callable
from urllib.parse import urlsplit

from . import link

log = logging.getLogger(__name__)

Route = Callable[[bytes], Any]


def _route_path(path: str) -> str:
    return path.rstrip("/") or "/"


class _Handler(BaseHTTPRequestHandler):
    server: "AdminServer"

    def _serve(self, method: str) -> None:
        route = self.server.routes.get((method, _route_path(self.path)))
        if route is None:
            self.send_error(404)
            return
        request = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            body = json.dumps(route(request)).encode()
        except Exception as exc:
            log.exception("http route %s %s failed", method, self.path)
            body = json.dumps({"error": str(exc)}).encode()
            self.send_response(500)
        else:
            self.send_response(200)
        self.send_header("Content-Type", self.server.content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802 (http.server API)
        self._serve("GET")

    def do_POST(self):  # noqa: N802
        self._serve("POST")

    def log_message(self, fmt, *args):
        log.debug("http: " + fmt, *args)


class AdminServer(link.TcpServer):
    def __init__(
        self,
        routes: dict[tuple[str, str], Route],
        port: int = 0,
        bind_address: str = "127.0.0.1",
        content_type: str = "application/json",
    ):
        self.routes = {(method, _route_path(path)): fn for (method, path), fn in routes.items()}
        self.content_type = content_type
        super().__init__(bind_address, port, self._accept)

    def _accept(self, conn: socket.socket, peer: tuple) -> None:
        link._handler_threads.run(self._serve, conn, peer)  # read per call: the pool may be replaced

    def _serve(self, conn: socket.socket, peer: tuple) -> None:
        try:
            _Handler(conn, peer, self)
        finally:
            link.close_socket(conn)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"


class HttpError(Exception):
    """A JSON-HTTP call got no answer, or an answer other than 200."""


def call_json(method: str, url: str, payload: Any = None, timeout: float = 5.0) -> Any:
    """Send `payload` (if not None) as a JSON body and return the decoded
    JSON of a 200 answer. Raises HttpError if no answer comes (refused,
    timed out, TLS failed, not HTTP) or its status is not 200, and
    ValueError if its body is not JSON."""
    parts = urlsplit(url)
    if parts.scheme == "http":
        connection_class = http.client.HTTPConnection
    elif parts.scheme == "https":
        connection_class = http.client.HTTPSConnection
    else:
        raise HttpError(f"not an http(s) URL: {url!r}")
    if not parts.hostname:
        raise HttpError(f"URL has no host: {url!r}")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    body, headers = None, {}
    if payload is not None:
        body, headers = json.dumps(payload).encode(), {"Content-Type": "application/json"}
    try:
        connection = connection_class(parts.hostname, parts.port, timeout=timeout)
        try:
            connection.request(method, target, body, headers)
            response = connection.getresponse()
            status, data = response.status, response.read()
        finally:
            connection.close()
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise HttpError(f"{method} {url}: {exc}") from exc
    if status != 200:
        raise HttpError(f"{method} {url} answered {status}")
    return json.loads(data)
