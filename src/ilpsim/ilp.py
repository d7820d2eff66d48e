"""ILP addresses, the three packet types, and their binary codec.

Wire layout (big-endian throughout):

    packet  = type byte || length prefix || contents
    prepare = amount(8) || expiry(17 ASCII digits) || condition(32)
              || var(destination) || var(data)
    fulfill = fulfillment(32) || var(data)
    reject  = code(3 ASCII) || var(triggered_by) || var(message) || var(data)
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
    read_var_octets,
)

TYPE_PREPARE = 12
TYPE_FULFILL = 13
TYPE_REJECT = 14

MAX_ADDRESS_LEN = 1023
MAX_DATA_LEN = 32767

ADDRESS_SCHEMES = frozenset({"g", "private", "example", "peer", "self", "test", "local"})

_ADDRESS_RE = re.compile(r"[A-Za-z0-9_~-]+(?:\.[A-Za-z0-9_~-]+)*")
_ERROR_CODE_RE = re.compile(r"[FTR][0-9][0-9]")

# Error codes used across the stack. Only F08 and T04 are externally fixed;
# the rest follow the conventional class letters (F final, T temporary, R relative).
F00_BAD_REQUEST = "F00"
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


@dataclass(frozen=True)
class IlpAddress:
    segments: tuple[str, ...]

    def __post_init__(self):
        text = ".".join(self.segments)
        # There is at least one segment and each is valid exactly when the
        # text matches and its only dots are the len - 1 separators.
        if not _ADDRESS_RE.fullmatch(text) or text.count(".") != len(self.segments) - 1:
            raise MalformedAddress(f"bad address segments {self.segments!r}")
        if len(text) > MAX_ADDRESS_LEN:
            raise MalformedAddress("address exceeds 1023 bytes")

    @property
    def scheme(self) -> str:
        return self.segments[0]

    def __str__(self) -> str:
        return ".".join(self.segments)

    def is_prefix_of(self, other: "IlpAddress") -> bool:
        return self.segments == other.segments[: len(self.segments)]

    def with_suffix(self, *segments: str) -> "IlpAddress":
        return IlpAddress(self.segments + tuple(segments))


def parse_address(text: str) -> IlpAddress:
    if not text:
        raise MalformedAddress("empty address")
    return IlpAddress(tuple(text.split(".")))


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
        destination = str(p.destination).encode("ascii")
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
            encode_var_octets(str(p.triggered_by).encode("ascii")),
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
    if ptype not in (TYPE_PREPARE, TYPE_FULFILL, TYPE_REJECT):
        raise UnknownType(f"unknown ILP packet type {ptype}")
    contents, end = read_var_octets(data, 1)
    if end != len(data):
        raise LengthMismatch(f"{len(data) - end} trailing bytes after packet")
    try:
        return _decode_contents(ptype, contents)
    except CodecError:
        raise
    except ValueError as exc:  # undecodable text, bad address, code or data size
        raise InvalidField(str(exc)) from exc


# amount(8) || expiry(17) || condition(32)
_PREPARE_HEAD = 57


def _decode_contents(ptype: int, contents: bytes) -> IlpPacket:
    if ptype == TYPE_PREPARE:
        if len(contents) < _PREPARE_HEAD:
            raise Truncated("truncated amount, expiry or condition")
        dest_b, off = read_var_octets(contents, _PREPARE_HEAD)
        payload, off = read_var_octets(contents, off)
        if off != len(contents):
            raise LengthMismatch("trailing bytes inside prepare contents")
        return PreparePacket(
            destination=parse_address(dest_b.decode("ascii")),
            amount=int.from_bytes(contents[:8], "big"),
            condition=contents[25:_PREPARE_HEAD],
            # latin-1 maps every byte; parse_expiry refuses non-digits
            expires_at=parse_expiry(contents[8:25].decode("latin-1")),
            data=payload,
        )
    if ptype == TYPE_FULFILL:
        fulfillment, off = read_exact(contents, 0, 32, "fulfillment")
        payload, off = read_var_octets(contents, off)
        if off != len(contents):
            raise LengthMismatch("trailing bytes inside fulfill contents")
        return FulfillPacket(fulfillment=fulfillment, data=payload)
    code_b, off = read_exact(contents, 0, 3, "error code")
    trig_b, off = read_var_octets(contents, off)
    message_b, off = read_var_octets(contents, off)
    payload, off = read_var_octets(contents, off)
    if off != len(contents):
        raise LengthMismatch("trailing bytes inside reject contents")
    return RejectPacket(
        code=code_b.decode("ascii"),
        triggered_by=parse_address(trig_b.decode("ascii")),
        message=message_b.decode("utf-8"),
        data=payload,
    )
