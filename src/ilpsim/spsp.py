"""Payment setup: payment-pointer resolution, the HTTP credentials exchange,
a serving endpoint, and the composite pay flow."""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Union

from . import ilp, stream
from .admin import AdminServer, HttpError, call_json
from .localapp import LocalApp
from .uplink import UplinkNode

WELL_KNOWN_PATH = "/.well-known/pay"


class MalformedPointer(ValueError):
    pass


class Unreachable(Exception):
    pass


class BadResponse(Exception):
    pass


def resolve_pointer(pointer_text: str, scheme: str = "https") -> str:
    """$host[/path] -> SPSP endpoint URL. An empty path becomes the
    well-known pay path; a non-empty path is kept verbatim."""
    if not pointer_text.startswith("$"):
        raise MalformedPointer("payment pointer must start with '$'")
    rest = pointer_text[1:]
    host, slash, path = rest.partition("/")
    if not host:
        raise MalformedPointer("payment pointer has no host")
    if not slash or not path:
        path_part = WELL_KNOWN_PATH
    else:
        path_part = "/" + path
    return f"{scheme}://{host}{path_part}"


@dataclass(frozen=True)
class SpspResponse:
    destination_account: str
    shared_secret: bytes

    def credentials(self) -> stream.StreamCredentials:
        return stream.StreamCredentials(
            ilp.parse_address(self.destination_account), self.shared_secret
        )


def query(endpoint_url: str, timeout: float = 5.0) -> SpspResponse:
    try:
        body = call_json("GET", endpoint_url, timeout=timeout)
        destination = body["destination_account"]
        secret = base64.b64decode(body["shared_secret"])
    except HttpError as exc:
        raise Unreachable(str(exc)) from exc
    except (ValueError, KeyError) as exc:
        raise BadResponse(f"malformed SPSP response: {exc}") from exc
    if len(secret) != 32:
        raise BadResponse(f"shared secret decodes to {len(secret)} bytes, expected 32")
    return SpspResponse(destination, secret)


class SpspServer(AdminServer):
    """HTTP endpoint issuing fresh STREAM credentials per GET."""

    def __init__(
        self,
        stream_server: stream.StreamServer,
        port: int = 0,
        path: str = WELL_KNOWN_PATH,
        bind_address: str = "127.0.0.1",
    ):
        if stream_server.base_address is None:
            raise RuntimeError("stream server has no uplink address; connect the node first")
        self.stream_server = stream_server
        self.path = path
        try:
            super().__init__(
                {("GET", path): self._credentials},
                port=port,
                bind_address=bind_address,
                content_type="application/spsp4+json",
            )
        except OSError as exc:
            raise OSError(f"cannot bind SPSP endpoint on port {port}: {exc}") from exc

    def _credentials(self, _request: bytes) -> dict:
        creds = self.stream_server.generate_credentials()
        return {
            "destination_account": creds.destination_account,
            "shared_secret": base64.b64encode(creds.shared_secret).decode(),
        }

    @property
    def url(self) -> str:
        return super().url + self.path


Receiver = Union[str, stream.StreamCredentials, stream.StreamServer]


def pay(
    receiver: Receiver,
    amount: int,
    uplink: UplinkNode | LocalApp,
    max_packet_amount: int = 2**63,
    scheme: str = "http",
    **sender_kwargs,
) -> stream.SendReport:
    """Resolve (if needed), fetch credentials, and stream the amount from an
    uplink node or from a local app on one.

    The receiver may be a payment pointer ("$host/path"), a raw endpoint URL,
    pre-fetched credentials, or an in-process StreamServer."""
    if isinstance(receiver, stream.StreamServer):
        credentials = receiver.generate_credentials()
    elif isinstance(receiver, stream.StreamCredentials):
        credentials = receiver
    else:
        url = resolve_pointer(receiver, scheme=scheme) if receiver.startswith("$") else receiver
        credentials = query(url).credentials()
    sender = uplink.open_stream(credentials, **sender_kwargs)
    return sender.send_money(amount, max_packet_amount)
