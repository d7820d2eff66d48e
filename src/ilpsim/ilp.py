"""ILP addresses, the three packet types, and their binary codec.

Wire layout (big-endian throughout):

    packet  = type byte || length prefix || contents
    prepare = amount(8) || expiry(17 ASCII digits) || condition(32)
              || var(destination) || var(data)
    fulfill = fulfillment(32) || var(data)
    reject  = code(3 ASCII) || var(triggered_by) || var(message) || var(data)

An ILP address is an `IlpAddress`, a `str` that is checked once, when it is
made, and goes to the wire, to events and to JSON as it is.

A hop that only relays packets works on the bytes: `read_prepare` and
`read_fulfill` check a packet as `decode_packet` does (which is built on
them) and return its fields, and `rewrite_prepare` writes a new amount and
expiry over a Prepare's fixed-width head.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Union

from .wire import (
    BYTES,
    CodecError,
    InvalidField,
    LengthMismatch,
    Truncated,
    encode_length,
    encode_var_octets,
    read_exact,
    read_length,
    read_var_octets,
)

TYPE_PREPARE = 12
TYPE_FULFILL = 13
TYPE_REJECT = 14

MAX_ADDRESS_LEN = 1023
MAX_DATA_LEN = 32767

_ADDRESS_RE = re.compile(r"[A-Za-z0-9_~-]+(?:\.[A-Za-z0-9_~-]+)*")
_ERROR_CODE_RE = re.compile(r"[FTR][0-9][0-9]")

# Error codes used across the stack. Only F08 and T04 are externally fixed;
# the rest follow the conventional class letters (F final, T temporary, R relative).
F02_UNREACHABLE = "F02"
F05_WRONG_CONDITION = "F05"
F06_UNEXPECTED_PAYMENT = "F06"
F08_AMOUNT_TOO_LARGE = "F08"
T00_INTERNAL_ERROR = "T00"
T04_INSUFFICIENT_LIQUIDITY = "T04"
R00_TRANSFER_TIMED_OUT = "R00"


class MalformedAddress(ValueError):
    pass


class UnknownType(CodecError):
    pass


class BadExpiryDigits(CodecError):
    pass


class IlpAddress(str):
    """An ILP address: at most 1023 bytes of dot-separated segments."""

    __slots__ = ()

    def __new__(cls, text: str) -> "IlpAddress":
        if not _ADDRESS_RE.fullmatch(text):
            raise MalformedAddress(f"bad address {text!r}")
        if len(text) > MAX_ADDRESS_LEN:
            raise MalformedAddress("address exceeds 1023 bytes")
        return super().__new__(cls, text)

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(self.split("."))

    def is_prefix_of(self, other: "IlpAddress") -> bool:
        return other == self or other.startswith(self + ".")

    def with_suffix(self, *segments: str) -> "IlpAddress":
        # the whole is checked as an address, but a dot would make two segments
        if any("." in segment for segment in segments):
            raise MalformedAddress(f"bad address segments {segments!r}")
        return IlpAddress(".".join((self, *segments)))


parse_address = IlpAddress


def condition_from_fulfillment(fulfillment: bytes) -> bytes:
    if len(fulfillment) != 32:
        raise ValueError("fulfillment must be exactly 32 bytes")
    return hashlib.sha256(fulfillment).digest()


def verify_fulfillment(fulfillment: bytes, condition: bytes) -> bool:
    return condition_from_fulfillment(fulfillment) == condition


def _check_bytes32(value: bytes, what: str) -> bytes:
    if len(value) != 32:
        raise ValueError(f"{what} must be exactly 32 bytes, got {len(value)}")
    return value


@dataclass(frozen=True)
class PreparePacket:
    destination: IlpAddress
    amount: int
    condition: bytes
    expires_at: datetime
    data: bytes = b""

    def __post_init__(self):
        if not 0 <= self.amount < 2**64:
            raise ValueError("amount must fit in an unsigned 64-bit integer")
        _check_bytes32(self.condition, "condition")
        if len(self.data) > MAX_DATA_LEN:
            raise ValueError("data exceeds 32767 bytes")
        if self.expires_at.tzinfo is None:
            raise ValueError("expires_at must be timezone-aware")


@dataclass(frozen=True)
class FulfillPacket:
    fulfillment: bytes
    data: bytes = b""

    def __post_init__(self):
        _check_bytes32(self.fulfillment, "fulfillment")
        if len(self.data) > MAX_DATA_LEN:
            raise ValueError("data exceeds 32767 bytes")


@dataclass(frozen=True)
class RejectPacket:
    code: str
    triggered_by: IlpAddress
    message: str = ""
    data: bytes = b""

    def __post_init__(self):
        if not _ERROR_CODE_RE.fullmatch(self.code):
            raise ValueError(f"bad error code {self.code!r}")
        if len(self.data) > MAX_DATA_LEN:
            raise ValueError("data exceeds 32767 bytes")


IlpPacket = Union[PreparePacket, FulfillPacket, RejectPacket]


def format_expiry(ts: datetime) -> str:
    """Render a timestamp as the 17-digit YYYYMMDDHHmmssfff wire form (UTC)."""
    u = ts.astimezone(timezone.utc)
    return "%04d%02d%02d%02d%02d%02d%03d" % (
        u.year, u.month, u.day, u.hour, u.minute, u.second, u.microsecond // 1000
    )


def parse_expiry(digits: str) -> datetime:
    if len(digits) != 17 or not (digits.isascii() and digits.isdigit()):
        raise BadExpiryDigits(f"expiry must be 17 ASCII digits, got {digits!r}")
    # fixed-width fields YYYY MM DD HH mm ss fff, read from the right
    rest, millis = divmod(int(digits), 1000)
    rest, second = divmod(rest, 100)
    rest, minute = divmod(rest, 100)
    rest, hour = divmod(rest, 100)
    rest, day = divmod(rest, 100)
    year, month = divmod(rest, 100)
    try:
        return datetime(year, month, day, hour, minute, second, millis * 1000, timezone.utc)
    except ValueError as exc:  # no such date or time
        raise BadExpiryDigits(str(exc)) from exc


def encode_packet(p: IlpPacket) -> bytes:
    if isinstance(p, PreparePacket):
        destination = p.destination.encode("ascii")
        ptype = TYPE_PREPARE
        contents = b"".join((
            p.amount.to_bytes(8, "big"),
            format_expiry(p.expires_at).encode("ascii"),
            p.condition,
            encode_length(len(destination)),
            destination,
            encode_length(len(p.data)),
            p.data,
        ))
    elif isinstance(p, FulfillPacket):
        ptype = TYPE_FULFILL
        contents = b"".join((p.fulfillment, encode_length(len(p.data)), p.data))
    elif isinstance(p, RejectPacket):
        ptype = TYPE_REJECT
        contents = b"".join((
            p.code.encode("ascii"),
            encode_var_octets(p.triggered_by.encode("ascii")),
            encode_var_octets(p.message.encode("utf-8")),
            encode_var_octets(p.data),
        ))
    else:
        raise TypeError(f"not an ILP packet: {type(p).__name__}")
    return b"".join((BYTES[ptype], encode_length(len(contents)), contents))


def decode_packet(data: bytes) -> IlpPacket:
    """Decode one ILP packet. Bad bytes raise only CodecError: a field that is
    complete but holds no valid value raises InvalidField."""
    if not data:
        raise Truncated("empty input")
    ptype = data[0]
    if ptype == TYPE_PREPARE:
        amount, expires_at, condition, destination, payload, _head = read_prepare(data)
        return PreparePacket(destination, amount, condition, expires_at, payload)
    if ptype == TYPE_FULFILL:
        return FulfillPacket(*read_fulfill(data))
    if ptype != TYPE_REJECT:
        raise UnknownType(f"unknown ILP packet type {ptype}")
    off = _open(data, TYPE_REJECT)
    code_b, off = read_exact(data, off, 3, "error code")
    trig_b, off = read_var_octets(data, off)
    message_b, off = read_var_octets(data, off)
    payload, off = read_var_octets(data, off)
    if off != len(data):
        raise LengthMismatch("trailing bytes inside reject contents")
    try:
        return RejectPacket(
            code=code_b.decode("ascii"),
            triggered_by=parse_address(trig_b.decode("ascii")),
            message=message_b.decode("utf-8"),
            data=payload,
        )
    except ValueError as exc:  # undecodable text, bad address, code or data size
        raise InvalidField(str(exc)) from exc


def _open(data: bytes, ptype: int) -> int:
    """Check that `data` is one packet of type `ptype` whose length prefix
    spans exactly the rest of it; return the offset of its contents. Since
    the contents end where `data` ends, fields are read from `data` itself."""
    if not data:
        raise Truncated("empty input")
    if data[0] != ptype:
        raise UnknownType(f"expected ILP packet type {ptype}, got {data[0]}")
    length, off = read_length(data, 1)
    end = off + length
    if end > len(data):
        raise Truncated(f"declared {length} bytes, only {len(data) - off} present")
    if end != len(data):
        raise LengthMismatch(f"{len(data) - end} trailing bytes after packet")
    return off


# amount(8) || expiry(17) || condition(32)
_PREPARE_HEAD = 57


def read_prepare(data: bytes) -> tuple[int, datetime, bytes, IlpAddress, bytes, int]:
    """Read an encoded Prepare with every check decode_packet makes, without
    building a packet. Returns (amount, expires_at, condition, destination,
    data, head): `head` is the offset in `data` of the fixed-width amount(8)
    and expiry(17) that rewrite_prepare replaces. Bad bytes raise only
    CodecError."""
    head = _open(data, TYPE_PREPARE)
    if len(data) < head + _PREPARE_HEAD:
        raise Truncated("truncated amount, expiry or condition")
    dest_b, off = read_var_octets(data, head + _PREPARE_HEAD)
    payload, off = read_var_octets(data, off)
    if off != len(data):
        raise LengthMismatch("trailing bytes inside prepare contents")
    try:
        destination = parse_address(dest_b.decode("ascii"))
    except ValueError as exc:
        raise InvalidField(str(exc)) from exc
    # latin-1 maps every byte; parse_expiry refuses non-digits
    expires_at = parse_expiry(data[head + 8 : head + 25].decode("latin-1"))
    if len(payload) > MAX_DATA_LEN:
        raise InvalidField("data exceeds 32767 bytes")
    return (
        int.from_bytes(data[head : head + 8], "big"),
        expires_at,
        data[head + 25 : head + _PREPARE_HEAD],
        destination,
        payload,
        head,
    )


def rewrite_prepare(data: bytes, head: int, amount: int, expires_at: datetime) -> bytes:
    """A copy of the encoded Prepare `data` with a new amount and expiry
    written over its head (found by read_prepare); every other byte is kept.
    Both fields have a fixed width, so no length changes, as in the
    `Prepare::set_amount` and `set_expires_at` setters of interledger-rs."""
    if not 0 <= amount < 2**64:
        raise ValueError("amount must fit in an unsigned 64-bit integer")
    return b"".join((
        data[:head],
        amount.to_bytes(8, "big"),
        format_expiry(expires_at).encode("ascii"),
        data[head + 25 :],
    ))


def read_fulfill(data: bytes) -> tuple[bytes, bytes]:
    """Read an encoded Fulfill with every check decode_packet makes; returns
    (fulfillment, data). Bad bytes raise only CodecError."""
    off = _open(data, TYPE_FULFILL)
    fulfillment, off = read_exact(data, off, 32, "fulfillment")
    payload, off = read_var_octets(data, off)
    if off != len(data):
        raise LengthMismatch("trailing bytes inside fulfill contents")
    if len(payload) > MAX_DATA_LEN:
        raise InvalidField("data exceeds 32767 bytes")
    return fulfillment, payload
