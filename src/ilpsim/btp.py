"""BTP frame codec: request/response envelopes with named sub-protocol entries.

Frame layout:

    frame = type(1) || request_id(4 BE) || length prefix || body
    body  = count-prefix || entries
    entry = name length(1) || name || content_type(1) || var(data)

The entry count is itself length-prefixed: a count below 256 is encoded as
0x01 followed by the count byte, matching the "01 01" bytes in observed
captures.

Frames and entries are immutable named tuples. Their constructors check
every field; `decode_frame` makes the same checks itself in its one pass
over the bytes (names of 1-255 ASCII bytes, content types 0-2, a 32-bit
request id) and then builds the tuples without checking again.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from .wire import (
    BYTES,
    CodecError,
    InvalidField,
    LengthMismatch,
    Truncated,
    encode_length,
    read_length,
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
_HEAD = struct.Struct(">BI")  # type || request_id
# _COUNTS[n]: the count prefix of a frame with n < 256 entries.
_COUNTS = tuple(b"\x01" + BYTES[n] for n in range(256))


class UnknownFrameType(CodecError):
    pass


class _EntryFields(NamedTuple):
    name: str
    content_type: int
    data: bytes


class ProtocolEntry(_EntryFields):
    __slots__ = ()

    def __new__(cls, name: str, content_type: int, data: bytes):
        if not 1 <= len(name) <= 255:
            raise ValueError("entry name must be 1-255 bytes")
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
    if count < 256:
        return _COUNTS[count]
    raw = count.to_bytes((count.bit_length() + 7) // 8, "big")
    return encode_length(len(raw)) + raw


def read_count(buf: bytes, offset: int) -> tuple[int, int]:
    """Read the var-octet entry count at offset; return (count, next_offset)."""
    raw, offset = read_var_octets(buf, offset)
    if not raw:
        raise CodecError("empty entry count")
    return int.from_bytes(raw, "big"), offset


def encode_frame(f: BtpFrame) -> bytes:
    parts = [_encode_count(len(f.entries))]
    for name, content_type, data in f.entries:
        name_b = name.encode("ascii")
        parts += (
            encode_length(len(name_b)), name_b, BYTES[content_type], encode_length(len(data)),
            data,
        )
    body = b"".join(parts)
    return b"".join((_HEAD.pack(f.frame_type, f.request_id), encode_length(len(body)), body))


def decode_frame(data: bytes) -> BtpFrame:
    """Decode one BTP frame in one pass. Bad bytes raise only CodecError: an
    entry whose name or content type is no valid value raises InvalidField.
    Each field is checked here once, so the tuples are built unchecked."""
    n = len(data)
    if not n:
        raise Truncated("empty input")
    if data[0] not in FRAME_TYPES:
        raise UnknownFrameType(f"unknown BTP frame type {data[0]}")
    if n < 5:
        raise Truncated("truncated request_id")
    frame_type, request_id = _HEAD.unpack_from(data)
    # The body runs to the end of the frame, so every field inside it is
    # bounded by n.
    if n > 5 and data[5] < 128:
        length, off = data[5], 6
    else:
        length, off = read_length(data, 5)
    if off + length != n:
        if off + length > n:
            raise Truncated(f"declared {length} bytes, only {n - off} present")
        raise LengthMismatch(f"{n - off - length} trailing bytes after frame")
    if n - off > 1 and data[off] == 1:
        count, off = data[off + 1], off + 2
    else:
        count, off = read_count(data, off)
    entries = []
    for _ in range(count):
        if off < n and data[off] < 128:
            length, off = data[off], off + 1
        else:
            length, off = read_length(data, off)
        end = off + length
        if end > n:
            raise Truncated(f"declared {length} bytes, only {n - off} present")
        name = data[off:end]
        if end >= n:
            raise Truncated("truncated content_type")
        content_type = data[end]
        off = end + 1
        if off < n and data[off] < 128:
            length, off = data[off], off + 1
        else:
            length, off = read_length(data, off)
        end = off + length
        if end > n:
            raise Truncated(f"declared {length} bytes, only {n - off} present")
        if not 1 <= len(name) <= 255:
            raise InvalidField("entry name must be 1-255 bytes")
        if not name.isascii():
            raise InvalidField("entry name is not ASCII")
        if content_type > 2:
            raise InvalidField(f"bad content_type {content_type}")
        entries.append(_new(ProtocolEntry, (name.decode("ascii"), content_type, data[off:end])))
        off = end
    if off != n:
        raise LengthMismatch("trailing bytes inside frame body")
    return _new(BtpFrame, (frame_type, request_id, tuple(entries)))
