"""BTP frame codec: request/response envelopes with named sub-protocol entries.

Frame layout:

    frame = type(1) || request_id(4 BE) || length prefix || body
    body  = count-prefix || entries
    entry = name length(1) || name || content_type(1) || var(data)

The entry count is itself length-prefixed: a count below 256 is encoded as
0x01 followed by the count byte, matching the "01 01" bytes in observed
captures.

Frames and entries are immutable named tuples, and their constructors are
the one place each field is checked: a name of 1-255 ASCII characters, a
content type 0-2, a frame type and a 32-bit request id. A link carries these
tuples; only its TCP transport encodes them, so `encode_frame` writes a
checked frame as it is and `decode_frame` builds its tuples through the same
constructors.
"""

from __future__ import annotations

from typing import NamedTuple

from .wire import (
    BYTES,
    CodecError,
    InvalidField,
    LengthMismatch,
    Truncated,
    encode_length,
    encode_var_octets,
    read_exact,
    read_var_octets,
)

TYPE_RESPONSE = 1
TYPE_ERROR = 2
TYPE_MESSAGE = 6

FRAME_TYPES = (TYPE_RESPONSE, TYPE_ERROR, TYPE_MESSAGE)

CONTENT_OCTET_STREAM = 0
CONTENT_TEXT = 1
CONTENT_STRUCTURED = 2

_new = tuple.__new__


class UnknownFrameType(CodecError):
    pass


class _EntryFields(NamedTuple):
    name: str
    content_type: int
    data: bytes


class ProtocolEntry(_EntryFields):
    __slots__ = ()

    def __new__(cls, name: str, content_type: int, data: bytes):
        if not (1 <= len(name) <= 255 and name.isascii()):
            raise ValueError("entry name must be 1-255 ASCII characters")
        if content_type not in (0, 1, 2):
            raise ValueError(f"bad content_type {content_type}")
        return _new(cls, (name, content_type, data))


class _FrameFields(NamedTuple):
    frame_type: int
    request_id: int
    entries: tuple[ProtocolEntry, ...] = ()


class BtpFrame(_FrameFields):
    __slots__ = ()

    def __new__(cls, frame_type: int, request_id: int, entries: tuple[ProtocolEntry, ...] = ()):
        if frame_type not in FRAME_TYPES:
            raise ValueError(f"bad frame type {frame_type}")
        if not 0 <= request_id < 2**32:
            raise ValueError("request_id must fit in 32 bits")
        return _new(cls, (frame_type, request_id, entries))

    def entry(self, name: str) -> ProtocolEntry | None:
        for e in self.entries:
            if e.name == name:
                return e
        return None


def _encode_count(count: int) -> bytes:
    return encode_var_octets(count.to_bytes(max(1, (count.bit_length() + 7) // 8), "big"))


def read_count(buf: bytes, offset: int) -> tuple[int, int]:
    """Read the var-octet entry count at offset; return (count, next_offset)."""
    raw, offset = read_var_octets(buf, offset)
    if not raw:
        raise CodecError("empty entry count")
    return int.from_bytes(raw, "big"), offset


def encode_frame(f: BtpFrame) -> bytes:
    """Encode a frame. Its fields were checked when it was made; a body or
    data of more than 65,535 bytes raises ValueError."""
    parts = [_encode_count(len(f.entries))]
    for name, content_type, data in f.entries:
        parts += (
            encode_length(len(name)), name.encode("ascii"), BYTES[content_type],
            encode_length(len(data)), data,
        )
    body = b"".join(parts)
    return b"".join(
        (BYTES[f.frame_type], f.request_id.to_bytes(4, "big"), encode_length(len(body)), body)
    )


def decode_frame(data: bytes) -> BtpFrame:
    """Decode one BTP frame. Bad bytes raise only CodecError. Each entry is
    read whole (Truncated) before it is built, and a name or content type
    that the ProtocolEntry constructor refuses raises InvalidField."""
    if not data:
        raise Truncated("empty input")
    if data[0] not in FRAME_TYPES:
        raise UnknownFrameType(f"unknown BTP frame type {data[0]}")
    request_id, _ = read_exact(data, 1, 4, "request_id")
    body, end = read_var_octets(data, 5)
    if end != len(data):
        raise LengthMismatch(f"{len(data) - end} trailing bytes after frame")
    count, off = read_count(body, 0)
    entries = []
    for _ in range(count):
        name, off = read_var_octets(body, off)
        content_type, off = read_exact(body, off, 1, "content_type")
        payload, off = read_var_octets(body, off)
        try:
            entries.append(ProtocolEntry(name.decode("ascii"), content_type[0], payload))
        except ValueError as exc:  # a UnicodeDecodeError too
            raise InvalidField(str(exc)) from exc
    if off != len(body):
        raise LengthMismatch("trailing bytes inside frame body")
    return BtpFrame(data[0], int.from_bytes(request_id, "big"), tuple(entries))
