"""ILP addresses, the three packet types, and their binary codec.

Wire layout (big-endian throughout):

    packet  = type byte || length prefix || contents
    prepare = amount(8) || expiry(17 ASCII digits) || condition(32)
              || var(destination) || var(data)
    fulfill = fulfillment(32) || var(data)
    reject  = code(3 ASCII) || var(triggered_by) || var(message) || var(data)

An ILP address is an `IlpAddress`, a `str` that is checked once, when it is
made, and goes to the wire, to events and to JSON as it is.

A packet is its wire encoding: `PreparePacket`, `FulfillPacket` and
`RejectPacket` are `bytes`, and their fields are read-only attributes. A
packet built from fields is checked and encoded once; `decode_packet` checks
received bytes once and keeps them as the packet, so a hop relays a packet
exactly as it came. `PreparePacket.forward` writes a new amount and expiry
over a Prepare's fixed-width head and keeps every other byte.
"""

from __future__ import annotations

import hashlib
import re
from datetime import datetime, timezone

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
_PREPARE = BYTES[TYPE_PREPARE]
_FULFILL = BYTES[TYPE_FULFILL]
_REJECT = BYTES[TYPE_REJECT]

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
        if text.__class__ is cls:  # checked when it was made
            return text
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


def _check_bytes32(value: bytes, what: str) -> None:
    if len(value) != 32:
        raise ValueError(f"{what} must be exactly 32 bytes, got {len(value)}")


def _check_data(data: bytes) -> None:
    if len(data) > MAX_DATA_LEN:
        raise ValueError("data exceeds 32767 bytes")


def _check_amount(amount: int) -> None:
    if not 0 <= amount < 2**64:
        raise ValueError("amount must fit in an unsigned 64-bit integer")


def _wire_expiry(ts: datetime) -> tuple[bytes, datetime]:
    """The 17 wire digits of an expiry, and the expiry they read as."""
    if ts.tzinfo is None:
        raise ValueError("expires_at must be timezone-aware")
    digits = format_expiry(ts)
    if ts.tzinfo is not timezone.utc or ts.microsecond % 1000:
        ts = parse_expiry(digits)
    return digits.encode("ascii"), ts


_new = bytes.__new__


class IlpPacket(bytes):
    """The bytes of one ILP packet, with its fields as read-only attributes
    (kept in the instance dict, since a `bytes` subclass has no slots).
    Equality and hash are those of the bytes. Made only by the constructors
    of the three packet types and by decode_packet."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__name__}({fields})"


class PreparePacket(IlpPacket):
    destination: IlpAddress
    amount: int
    condition: bytes
    expires_at: datetime  # as the wire reads it: UTC, whole milliseconds
    data: bytes

    def __new__(
        cls, destination: str, amount: int, condition: bytes, expires_at: datetime,
        data: bytes = b"",
    ) -> "PreparePacket":
        destination = IlpAddress(destination)
        _check_amount(amount)
        _check_bytes32(condition, "condition")
        _check_data(data)
        digits, expires_at = _wire_expiry(expires_at)
        contents = b"".join((
            amount.to_bytes(8, "big"), digits, condition,
            encode_var_octets(destination.encode("ascii")), encode_var_octets(data),
        ))
        self = _new(cls, b"".join((_PREPARE, encode_length(len(contents)), contents)))
        self.__dict__.update(
            destination=destination, amount=amount, condition=condition,
            expires_at=expires_at, data=data,
        )
        return self

    def forward(self, amount: int, expires_at: datetime) -> "PreparePacket":
        """This Prepare with a new amount and expiry written over its head;
        every other byte is kept. Both fields have a fixed width, so no
        length changes, as in the `Prepare::set_amount` and `set_expires_at`
        setters of interledger-rs."""
        _check_amount(amount)
        digits, expires_at = _wire_expiry(expires_at)
        head = 2 if self[1] < 128 else 2 + (self[1] & 0x7F)
        packet = _new(PreparePacket, b"".join(
            (self[:head], amount.to_bytes(8, "big"), digits, self[head + 25 :])
        ))
        packet.__dict__.update(self.__dict__, amount=amount, expires_at=expires_at)
        return packet


class FulfillPacket(IlpPacket):
    fulfillment: bytes
    data: bytes

    def __new__(cls, fulfillment: bytes, data: bytes = b"") -> "FulfillPacket":
        _check_bytes32(fulfillment, "fulfillment")
        _check_data(data)
        contents = fulfillment + encode_var_octets(data)
        self = _new(cls, b"".join((_FULFILL, encode_length(len(contents)), contents)))
        self.__dict__.update(fulfillment=fulfillment, data=data)
        return self


class RejectPacket(IlpPacket):
    code: str
    triggered_by: IlpAddress
    message: str
    data: bytes

    def __new__(
        cls, code: str, triggered_by: str, message: str = "", data: bytes = b""
    ) -> "RejectPacket":
        """A message or contents of more than 65,535 bytes raise ValueError."""
        if not _ERROR_CODE_RE.fullmatch(code):
            raise ValueError(f"bad error code {code!r}")
        triggered_by = IlpAddress(triggered_by)
        _check_data(data)
        contents = b"".join((
            code.encode("ascii"), encode_var_octets(triggered_by.encode("ascii")),
            encode_var_octets(message.encode("utf-8")), encode_var_octets(data),
        ))
        self = _new(cls, b"".join((_REJECT, encode_length(len(contents)), contents)))
        self.__dict__.update(code=code, triggered_by=triggered_by, message=message, data=data)
        return self


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
    """A packet's wire encoding: its bytes."""
    return bytes(p)


def decode_packet(data: bytes) -> IlpPacket:
    """Check one received ILP packet and keep `data` as its bytes. Bad bytes
    raise only CodecError: a field that is complete but holds no valid value
    raises InvalidField."""
    if not data:
        raise Truncated("empty input")
    ptype = data[0]
    if ptype == TYPE_PREPARE:
        off = _open(data)
        if len(data) < off + 57:
            raise Truncated("truncated amount, expiry or condition")
        dest_b, end = read_var_octets(data, off + 57)
        payload, end = read_var_octets(data, end)
        _check_end(data, end, payload)
        try:
            destination = IlpAddress(dest_b.decode("ascii"))
        except ValueError as exc:
            raise InvalidField(str(exc)) from exc
        packet = _new(PreparePacket, data)
        packet.__dict__.update(
            destination=destination,
            amount=int.from_bytes(data[off : off + 8], "big"),
            condition=data[off + 25 : off + 57],
            # latin-1 maps every byte; parse_expiry refuses non-digits
            expires_at=parse_expiry(data[off + 8 : off + 25].decode("latin-1")),
            data=payload,
        )
        return packet
    if ptype == TYPE_FULFILL:
        fulfillment, end = read_exact(data, _open(data), 32, "fulfillment")
        payload, end = read_var_octets(data, end)
        _check_end(data, end, payload)
        packet = _new(FulfillPacket, data)
        packet.__dict__.update(fulfillment=fulfillment, data=payload)
        return packet
    if ptype != TYPE_REJECT:
        raise UnknownType(f"unknown ILP packet type {ptype}")
    code_b, end = read_exact(data, _open(data), 3, "error code")
    trig_b, end = read_var_octets(data, end)
    message_b, end = read_var_octets(data, end)
    payload, end = read_var_octets(data, end)
    _check_end(data, end, payload)
    try:
        code = code_b.decode("ascii")
        if not _ERROR_CODE_RE.fullmatch(code):
            raise ValueError(f"bad error code {code!r}")
        triggered_by = IlpAddress(trig_b.decode("ascii"))
        message = message_b.decode("utf-8")
    except ValueError as exc:  # undecodable text, bad address or code
        raise InvalidField(str(exc)) from exc
    packet = _new(RejectPacket, data)
    packet.__dict__.update(code=code, triggered_by=triggered_by, message=message, data=payload)
    return packet


def _open(data: bytes) -> int:
    """Check that the length prefix of the packet `data` spans exactly the
    rest of it; return the offset of its contents. Since the contents end
    where `data` ends, fields are read from `data` itself."""
    length, off = read_length(data, 1)
    end = off + length
    if end > len(data):
        raise Truncated(f"declared {length} bytes, only {len(data) - off} present")
    if end != len(data):
        raise LengthMismatch(f"{len(data) - end} trailing bytes after packet")
    return off


def _check_end(data: bytes, end: int, payload: bytes) -> None:
    """The last field, `payload`, must end the contents and fit its bound."""
    if end != len(data):
        raise LengthMismatch("trailing bytes inside packet contents")
    if len(payload) > MAX_DATA_LEN:
        raise InvalidField("data exceeds 32767 bytes")
