"""BTP frame codec: request/response envelopes with named sub-protocol entries.

Frame layout:

    frame = type(1) || request_id(4 BE) || length prefix || body
    body  = count-prefix || entries
    entry = name length(1) || name || content_type(1) || var(data)

The entry count is itself length-prefixed: a count below 256 is encoded as
0x01 followed by the count byte, matching the "01 01" bytes in observed
captures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .wire import (
    BYTES,
    CodecError,
    InvalidField,
    LengthMismatch,
    Truncated,
    encode_length,
    read_var_octets,
)

TYPE_RESPONSE = 1
TYPE_ERROR = 2
TYPE_MESSAGE = 6

FRAME_TYPES = (TYPE_RESPONSE, TYPE_ERROR, TYPE_MESSAGE)

CONTENT_OCTET_STREAM = 0
CONTENT_TEXT = 1
CONTENT_STRUCTURED = 2


class UnknownFrameType(CodecError):
    pass


@dataclass(frozen=True)
class ProtocolEntry:
    name: str
    content_type: int
    data: bytes

    def __post_init__(self):
        if not 1 <= len(self.name) <= 255:
            raise ValueError("entry name must be 1-255 bytes")
        if self.content_type not in (0, 1, 2):
            raise ValueError(f"bad content_type {self.content_type}")


@dataclass(frozen=True)
class BtpFrame:
    frame_type: int
    request_id: int
    entries: tuple[ProtocolEntry, ...] = ()

    def __post_init__(self):
        if self.frame_type not in FRAME_TYPES:
            raise ValueError(f"bad frame type {self.frame_type}")
        if not 0 <= self.request_id < 2**32:
            raise ValueError("request_id must fit in 32 bits")

    def entry(self, name: str) -> ProtocolEntry | None:
        for e in self.entries:
            if e.name == name:
                return e
        return None


def _encode_count(count: int) -> bytes:
    raw = count.to_bytes(max(1, (count.bit_length() + 7) // 8), "big")
    return encode_length(len(raw)) + raw


def read_count(buf: bytes, offset: int) -> tuple[int, int]:
    """Read the var-octet entry count at offset; return (count, next_offset)."""
    raw, offset = read_var_octets(buf, offset)
    if not raw:
        raise CodecError("empty entry count")
    return int.from_bytes(raw, "big"), offset


def encode_frame(f: BtpFrame) -> bytes:
    parts = [_encode_count(len(f.entries))]
    for e in f.entries:
        name = e.name.encode("ascii")
        parts += (
            encode_length(len(name)), name, BYTES[e.content_type], encode_length(len(e.data)),
            e.data,
        )
    body = b"".join(parts)
    return b"".join(
        (BYTES[f.frame_type], f.request_id.to_bytes(4, "big"), encode_length(len(body)), body)
    )


def decode_frame(data: bytes) -> BtpFrame:
    """Decode one BTP frame. Bad bytes raise only CodecError: an entry whose
    name or content type is no valid value raises InvalidField."""
    if not data:
        raise Truncated("empty input")
    frame_type = data[0]
    if frame_type not in FRAME_TYPES:
        raise UnknownFrameType(f"unknown BTP frame type {frame_type}")
    if len(data) < 5:
        raise Truncated("truncated request_id")
    body, end = read_var_octets(data, 5)
    if end != len(data):
        raise LengthMismatch(f"{len(data) - end} trailing bytes after frame")
    count, boff = read_count(body, 0)
    entries = []
    try:
        for _ in range(count):
            name_b, boff = read_var_octets(body, boff)
            if boff >= len(body):
                raise Truncated("truncated content_type")
            payload, end = read_var_octets(body, boff + 1)
            entries.append(ProtocolEntry(name_b.decode("ascii"), body[boff], payload))
            boff = end
    except CodecError:
        raise
    except ValueError as exc:  # non-ASCII name, name length or content type
        raise InvalidField(str(exc)) from exc
    if boff != len(body):
        raise LengthMismatch("trailing bytes inside frame body")
    return BtpFrame(frame_type, int.from_bytes(data[1:5], "big"), tuple(entries))
