"""Shared variable-length wire primitives.

Length prefixes: values below 128 use a single byte; larger values use
0x80+n followed by n big-endian length bytes, capped at n=2 (max 65535).
"""

from __future__ import annotations


class CodecError(ValueError):
    """Base class for wire decoding failures."""


class Truncated(CodecError):
    """Input ended before a declared field was complete."""


class LengthMismatch(CodecError):
    """Declared lengths disagree with the actual byte counts."""


class InvalidField(CodecError):
    """A complete field whose bytes hold no valid value (text, address, code)."""


MAX_VAR_LEN = 0xFFFF

# BYTES[n] == bytes([n]): the one-byte length prefixes and type bytes.
BYTES = tuple(bytes((n,)) for n in range(256))


def encode_length(n: int) -> bytes:
    if 0 <= n < 128:
        return BYTES[n]
    if n < 0:
        raise ValueError("negative length")
    if n <= 0xFF:
        return bytes([0x81, n])
    if n <= MAX_VAR_LEN:
        return bytes([0x82, n >> 8, n & 0xFF])
    raise ValueError(f"length {n} exceeds 2-byte extended form")


def read_length(buf: bytes, offset: int) -> tuple[int, int]:
    """Read a length prefix at offset; return (length, next_offset)."""
    if offset >= len(buf):
        raise Truncated("missing length prefix")
    first = buf[offset]
    if first < 128:
        return first, offset + 1
    n = first & 0x7F
    if n == 0 or n > 2:
        raise CodecError(f"unsupported extended length of {n} bytes")
    if offset + 1 + n > len(buf):
        raise Truncated("truncated extended length prefix")
    value = int.from_bytes(buf[offset + 1 : offset + 1 + n], "big")
    return value, offset + 1 + n


def encode_var_octets(data: bytes) -> bytes:
    return encode_length(len(data)) + data


def read_var_octets(buf: bytes, offset: int) -> tuple[bytes, int]:
    if offset < len(buf) and buf[offset] < 128:
        length = buf[offset]
        offset += 1
    else:
        length, offset = read_length(buf, offset)
    end = offset + length
    if end > len(buf):
        raise Truncated(f"declared {length} bytes, only {len(buf) - offset} present")
    return buf[offset:end], end


def read_exact(buf: bytes, offset: int, n: int, what: str) -> tuple[bytes, int]:
    if offset + n > len(buf):
        raise Truncated(f"truncated {what}")
    return buf[offset : offset + n], offset + n
