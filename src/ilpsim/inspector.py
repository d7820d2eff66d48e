"""Hex-dump inspector: best-effort decoding of BTP frames and ILP packets
into the field/value pairs a debug log would print.

Unlike the strict codecs, the inspector keeps going on truncated input and
reports everything decodable before the cut, plus the failure offset."""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from typing import Optional

from . import btp, ilp, wire

FRAME_NAMES = {
    btp.TYPE_RESPONSE: "Response",
    btp.TYPE_ERROR: "Error",
    btp.TYPE_MESSAGE: "Message",
}
PACKET_NAMES = {12: "Prepare", 13: "Fulfill", 14: "Reject"}


@dataclass
class InspectorReport:
    layer: str  # "btp" | "ilp"
    fields: dict = field(default_factory=dict)
    nested: list = field(default_factory=list)
    error: Optional[str] = None

    def all_fields(self) -> dict:
        """Flattened view over this report and everything nested."""
        merged = dict(self.fields)
        for sub in self.nested:
            for key, value in sub.all_fields().items():
                merged.setdefault(key, value)
        return merged

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.layer.upper()}_PACKET:"]
        for key, value in self.fields.items():
            lines.append(f"{pad}  {key}: {value}")
        for sub in self.nested:
            lines.append(sub.render(indent + 1))
        if self.error:
            lines.append(f"{pad}  ! {self.error}")
        return "\n".join(lines)


class _Cursor:
    """Reads fields with the codecs' own primitives, so the inspector and the
    strict decoders agree on every length prefix and entry count."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        what = f"{n}-byte field at byte {self.pos}"
        out, self.pos = wire.read_exact(self.data, self.pos, n, what)
        return out

    def take_varlen(self) -> bytes:
        # Advance past the prefix first: on truncation the caller keeps the
        # tail from self.pos, which must start at the field itself.
        length, self.pos = wire.read_length(self.data, self.pos)
        return self.take(length)


def inspect_hex(text: str) -> InspectorReport:
    cleaned = "".join(text.split())
    return inspect_bytes(bytes.fromhex(cleaned))


def inspect_bytes(data: bytes) -> InspectorReport:
    if not data:
        return InspectorReport(layer="btp", error="empty input")
    if data[0] in FRAME_NAMES:
        return _inspect_btp(data)
    if data[0] in PACKET_NAMES:
        return _inspect_ilp(data)
    return InspectorReport(
        layer="btp", error=f"unknown leading byte 0x{data[0]:02x}"
    )


def _inspect_btp(data: bytes) -> InspectorReport:
    report = InspectorReport(layer="btp")
    cur = _Cursor(data)
    try:
        frame_type = cur.take(1)[0]
        report.fields["type"] = f"{frame_type} ({FRAME_NAMES[frame_type]})"
        report.fields["requestId"] = int.from_bytes(cur.take(4), "big")
        body = cur.take_varlen()
    except ValueError as exc:
        # Header intact but body truncated: keep inspecting what we have.
        if "requestId" not in report.fields:
            report.error = str(exc)
            return report
        body = data[cur.pos :]
        report.error = f"frame truncated ({exc})"
    bcur = _Cursor(body)
    names: list[str] = []
    try:
        count, bcur.pos = btp.read_count(body, 0)
        for _ in range(count):
            name = bcur.take_varlen().decode("ascii", "replace")
            names.append(name)
            content_type = bcur.take(1)[0]
            truncated = None
            try:
                payload = bcur.take_varlen()
            except ValueError as exc:
                # Keep whatever tail survived the cut and stop after this entry.
                payload = bcur.data[bcur.pos :]
                truncated = f"entry payload truncated ({exc})"
            entry = InspectorReport(
                layer="btp",
                fields={
                    "protocolName": name,
                    "contentType": content_type,
                    "length": len(payload),
                },
            )
            if name == "ilp":
                entry.nested.append(_inspect_ilp(payload))
            elif content_type in (btp.CONTENT_TEXT, btp.CONTENT_STRUCTURED):
                entry.fields["data"] = payload.decode("utf-8", "replace")
            else:
                entry.fields["data"] = payload.hex()
            entry.error = truncated
            report.nested.append(entry)
            if truncated:
                report.error = report.error or truncated
                break
    except ValueError as exc:
        report.error = report.error or f"entries truncated ({exc})"
    report.fields["protocolNames"] = names
    return report


def _inspect_ilp(data: bytes) -> InspectorReport:
    report = InspectorReport(layer="ilp")
    cur = _Cursor(data)
    try:
        packet_type = cur.take(1)[0]
        report.fields["type"] = f"{packet_type} ({PACKET_NAMES[packet_type]})"
    except (ValueError, KeyError) as exc:
        report.error = f"unreadable packet header ({exc})"
        return report
    try:
        contents = cur.take_varlen()
    except ValueError as exc:
        contents = data[cur.pos :]
        report.error = f"packet truncated ({exc})"
    ccur = _Cursor(contents)
    try:
        if packet_type == 12:
            report.fields["amount"] = int.from_bytes(ccur.take(8), "big")
            report.fields["expiresAt"] = ilp.parse_expiry(
                ccur.take(17).decode("ascii")
            ).isoformat(timespec="milliseconds").replace("+00:00", "Z")
            report.fields["executionCondition"] = base64.b64encode(ccur.take(32)).decode()
            report.fields["destination"] = ccur.take_varlen().decode("ascii", "replace")
            report.fields["data"] = base64.b64encode(ccur.take_varlen()).decode()
        elif packet_type == 13:
            report.fields["fulfillment"] = base64.b64encode(ccur.take(32)).decode()
            report.fields["data"] = base64.b64encode(ccur.take_varlen()).decode()
        elif packet_type == 14:
            report.fields["code"] = ccur.take(3).decode("ascii", "replace")
            report.fields["triggeredBy"] = ccur.take_varlen().decode("ascii", "replace")
            report.fields["message"] = ccur.take_varlen().decode("utf-8", "replace")
            report.fields["data"] = base64.b64encode(ccur.take_varlen()).decode()
    except ValueError as exc:
        report.error = report.error or f"fields truncated ({exc})"
    return report
