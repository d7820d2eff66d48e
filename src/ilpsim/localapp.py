"""Client for an uplink node's local application port (BTP framing over TCP).

Local apps either push packets through the node ("ilp" entries) or register
as the node's packet sink ("listen") to receive incoming traffic — the two
halves of the SPSP send/serve commands."""

from __future__ import annotations

from typing import Optional

from . import ilp, link, peering, stream

# triggered_by of the Rejects a LocalApp makes itself, when the node fails it
LOCAL_APP_ADDRESS = ilp.parse_address("self.app")


class LocalApp:
    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7768,
        token: str = "local",
        name: str = "app",
        timeout: float = 5.0,
    ):
        transport = link.TcpTransport.connect(host, port)
        self.timeout = timeout
        self.stream_server: Optional[stream.StreamServer] = None
        # Prepares arrive only after listen() has set the stream server.
        table = {
            "ilp": peering.ilp_handler(lambda prepare: self.stream_server.handle_prepare(prepare))
        }
        self.endpoint = link.LinkEndpoint(transport, handler=peering.message_handler(table))
        self.endpoint.authenticate(name, token, timeout=timeout)

    def ildcp(self) -> dict:
        return peering.query(self.endpoint, "ildcp", self.timeout)

    def send_packet(
        self, prepare: ilp.PreparePacket, timeout: Optional[float] = None
    ) -> ilp.FulfillPacket | ilp.RejectPacket:
        timeout = timeout if timeout is not None else self.timeout
        return peering.send_prepare(self.endpoint, prepare, timeout, LOCAL_APP_ADDRESS)

    def open_stream(self, credentials: stream.StreamCredentials, **kwargs) -> stream.StreamSender:
        return stream.StreamSender(self.send_packet, credentials, **kwargs)

    def listen(self, server: stream.StreamServer) -> stream.StreamServer:
        """Register as the node's packet sink, delivering to a stream server
        anchored at the node's local address."""
        info = self.ildcp()
        server.base_address = ilp.parse_address(info["ilp_address"])
        self.stream_server = server
        self.endpoint.request([peering.json_entry("listen", {})], timeout=self.timeout)
        return server

    def close(self) -> None:
        self.endpoint.close()
