import hashlib
import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilpsim import ilp
from ilpsim.wire import CodecError, InvalidField, LengthMismatch, Truncated

import vectors


def test_parse_address_scylla():
    addr = ilp.parse_address("g.scylla")
    assert addr.segments == ("g", "scylla")
    assert str(addr) == "g.scylla"


def test_parse_address_single_segment():
    assert ilp.parse_address("g").segments == ("g",)


def test_address_is_its_text():
    addr = ilp.parse_address("g.a")
    assert addr == "g.a"
    assert hash(addr) == hash("g.a")
    assert json.dumps({"address": addr}) == '{"address": "g.a"}'


@pytest.mark.parametrize("bad", ["", "g..x", ".g", "g.", "g.a!b", "g." + "a" * 1024])
def test_parse_address_rejects(bad):
    with pytest.raises(ilp.MalformedAddress):
        ilp.parse_address(bad)


# a dot inside one segment, an empty one, and a result over 1023 bytes
@pytest.mark.parametrize("segment", ["b.c", "", "b" * 1020])
def test_with_suffix_rejects(segment):
    with pytest.raises(ilp.MalformedAddress):
        ilp.parse_address("g.a").with_suffix(segment)


def test_prefix_relation():
    a = ilp.parse_address("g.conn1")
    b = ilp.parse_address("g.conn1.ilsp_clients.mduni")
    c = ilp.parse_address("g.conn1.ilsp_clients.mduni.local.x")
    assert a.is_prefix_of(a)  # reflexive
    assert a.is_prefix_of(b) and b.is_prefix_of(c) and a.is_prefix_of(c)  # transitive
    assert not b.is_prefix_of(a)
    # segment boundaries matter: "g.conn" is not a prefix of "g.conn1"
    assert not ilp.parse_address("g.conn").is_prefix_of(a)
    assert not ilp.parse_address("g.a").is_prefix_of(ilp.parse_address("g.a-b"))


def test_condition_from_fulfillment_zero():
    cond = ilp.condition_from_fulfillment(bytes(32))
    assert cond == hashlib.sha256(bytes(32)).digest()
    assert cond.hex().startswith("66687aad")


def test_verify_fulfillment_definitional():
    f = bytes(range(32))
    assert ilp.verify_fulfillment(f, ilp.condition_from_fulfillment(f))
    assert not ilp.verify_fulfillment(f, bytes(32))


def capture_prepare():
    return ilp.PreparePacket(
        destination=ilp.parse_address(vectors.PREPARE_DESTINATION),
        amount=vectors.PREPARE_AMOUNT,
        condition=vectors.PREPARE_CONDITION,
        expires_at=vectors.PREPARE_EXPIRY,
        data=vectors.PREPARE_DATA,
    )


def test_encode_prepare_golden_prefix():
    encoded = ilp.encode_packet(capture_prepare())
    assert encoded[: len(vectors.PREPARE_ILP_PREFIX)] == vectors.PREPARE_ILP_PREFIX
    assert len(encoded) == 2 + 1 + 0xDD  # type + extended length prefix + contents


def test_decode_prepare_golden():
    p = ilp.decode_packet(ilp.encode_packet(capture_prepare()))
    assert p.amount == 2500000000
    assert str(p.destination).startswith("g.conn1.ilsp_clients.mduni.local.")
    assert p.expires_at == datetime(2019, 6, 19, 9, 43, 1, 509000, tzinfo=timezone.utc)
    assert p.condition == vectors.PREPARE_CONDITION


def test_fulfill_golden_header():
    f = ilp.FulfillPacket(
        fulfillment=vectors.FULFILL_FULFILLMENT,
        data=vectors.FULFILL_DATA_PREFIX + bytes(61 - len(vectors.FULFILL_DATA_PREFIX)),
    )
    encoded = ilp.encode_packet(f)
    assert encoded[0] == 0x0D
    assert encoded[1] == 0x5E
    assert encoded[2:34] == vectors.FULFILL_FULFILLMENT


def test_fulfill_zero_hand_computed():
    # 0d 21 <32 zero bytes> 00 : type 13, contents length 33, empty data
    encoded = ilp.encode_packet(ilp.FulfillPacket(fulfillment=bytes(32)))
    assert encoded == bytes([0x0D, 0x21]) + bytes(32) + b"\x00"


def test_decode_degenerate():
    with pytest.raises((Truncated, LengthMismatch)):
        ilp.decode_packet(bytes([0x0C, 0x00]))


def test_decode_unknown_type():
    with pytest.raises(ilp.UnknownType):
        ilp.decode_packet(bytes([0x0B, 0x00]))


def test_decode_trailing_garbage():
    good = ilp.encode_packet(ilp.FulfillPacket(fulfillment=bytes(32)))
    with pytest.raises(LengthMismatch):
        ilp.decode_packet(good + b"\x00")


def test_bad_expiry_digits():
    encoded = bytearray(ilp.encode_packet(capture_prepare()))
    encoded[11] = ord("x")  # first expiry byte
    with pytest.raises(ilp.BadExpiryDigits):
        ilp.decode_packet(bytes(encoded))


segments = st.text(
    alphabet="ABCXYZabcxyz019_~-", min_size=1, max_size=8
)
addresses = st.builds(
    ilp.IlpAddress, st.lists(segments, min_size=1, max_size=6).map(".".join)
)
timestamps = st.integers(min_value=0, max_value=2**31).map(
    lambda s: datetime.fromtimestamp(s, tz=timezone.utc)
)
payloads = st.binary(max_size=200)

prepares = st.builds(
    ilp.PreparePacket,
    destination=addresses,
    amount=st.integers(min_value=0, max_value=2**64 - 1),
    condition=st.binary(min_size=32, max_size=32),
    expires_at=timestamps,
    data=payloads,
)
fulfills = st.builds(
    ilp.FulfillPacket, fulfillment=st.binary(min_size=32, max_size=32), data=payloads
)
rejects = st.builds(
    ilp.RejectPacket,
    code=st.from_regex(r"[FTR][0-9][0-9]", fullmatch=True),
    triggered_by=addresses,
    message=st.text(max_size=50),
    data=payloads,
)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(prepares, fulfills, rejects))
def test_codec_round_trip(packet):
    assert ilp.decode_packet(ilp.encode_packet(packet)) == packet


@settings(max_examples=200, deadline=None)
@given(timestamps)
def test_expiry_millisecond_round_trip(ts):
    assert ilp.parse_expiry(ilp.format_expiry(ts)) == ts


def test_parse_address_refuses_trailing_newline():
    with pytest.raises(ilp.MalformedAddress):
        ilp.parse_address("g.bob\n")


def test_reject_code_refuses_trailing_newline():
    with pytest.raises(ValueError):
        ilp.RejectPacket("F00\n", ilp.parse_address("g.bob"))


def raw_reject(triggered_by: bytes, code: bytes = b"F02", message: bytes = b"") -> bytes:
    contents = code + bytes([len(triggered_by)]) + triggered_by + bytes([len(message)]) + message
    contents += b"\x00"
    return bytes([ilp.TYPE_REJECT, len(contents)]) + contents


@pytest.mark.parametrize(
    "raw",
    [
        raw_reject(b"g.c\xffnn9"),  # non-ASCII address
        raw_reject(b"g..x"),  # empty segment
        raw_reject(b"g.bob", code=b"X00"),  # bad error code
        raw_reject(b"g.bob", code=b"F\xff0"),  # non-ASCII error code
        raw_reject(b"g.bob", message=b"\xff"),  # message is not UTF-8
    ],
)
def test_decode_bad_field_raises_invalid_field(raw):
    with pytest.raises(InvalidField):
        ilp.decode_packet(raw)


def test_decode_oversized_data_raises_invalid_field():
    data = bytes(ilp.MAX_DATA_LEN + 1)
    contents = bytes(32) + bytes([0x82]) + len(data).to_bytes(2, "big") + data
    raw = bytes([ilp.TYPE_FULFILL, 0x82]) + len(contents).to_bytes(2, "big") + contents
    with pytest.raises(InvalidField):
        ilp.decode_packet(raw)


def flip_byte(encoded: bytes, index: int, value: int) -> bytes:
    index %= len(encoded)
    return encoded[:index] + bytes([value]) + encoded[index + 1 :]


garbled_packets = st.builds(
    flip_byte,
    st.one_of(prepares, fulfills, rejects).map(ilp.encode_packet),
    st.integers(min_value=0),
    st.integers(min_value=0, max_value=255),
)
garbled_prepares = st.builds(
    flip_byte, prepares.map(ilp.encode_packet), st.integers(min_value=0),
    st.integers(min_value=0, max_value=255),
)
garbled_fulfills = st.builds(
    flip_byte, fulfills.map(ilp.encode_packet), st.integers(min_value=0),
    st.integers(min_value=0, max_value=255),
)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.binary(max_size=300), garbled_packets, garbled_prepares, garbled_fulfills))
def test_decode_raises_only_codec_error(raw):
    try:
        ilp.decode_packet(raw)
    except CodecError:
        pass


@settings(max_examples=300, deadline=None)
@given(prepares, st.integers(min_value=0, max_value=2**64 - 1), timestamps)
def test_forward_replaces_only_amount_and_expiry(prepare, amount, expires_at):
    forwarded = prepare.forward(amount, expires_at)
    head = 2 if prepare[1] < 128 else 2 + (prepare[1] & 0x7F)
    assert len(forwarded) == len(prepare)
    assert all(
        a == b for i, (a, b) in enumerate(zip(prepare, forwarded)) if not head <= i < head + 25
    )
    expected = ilp.PreparePacket(
        prepare.destination, amount, prepare.condition, expires_at, prepare.data
    )
    assert forwarded == expected
    assert vars(ilp.decode_packet(forwarded)) == vars(forwarded) == vars(expected)


# Any aware expiry: microseconds and offsets other than UTC, which the wire
# does not carry, so a packet keeps the expiry as the wire reads it.
offset_timestamps = st.datetimes(
    min_value=datetime(2, 1, 1),
    max_value=datetime(9998, 12, 31, 23, 59, 59, 999999),
    timezones=st.integers(min_value=-1439, max_value=1439).map(
        lambda minutes: timezone(timedelta(minutes=minutes))
    ),
)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.builds(
            ilp.PreparePacket,
            destination=addresses.map(str),
            amount=st.integers(min_value=0, max_value=2**64 - 1),
            condition=st.binary(min_size=32, max_size=32),
            expires_at=offset_timestamps,
            data=payloads,
        ),
        fulfills,
        st.builds(
            ilp.RejectPacket,
            code=st.from_regex(r"[FTR][0-9][0-9]", fullmatch=True),
            triggered_by=addresses.map(str),
            message=st.text(max_size=50),
            data=payloads,
        ),
    )
)
def test_constructed_packet_decodes_to_equal_fields(packet):
    decoded = ilp.decode_packet(bytes(packet))
    assert type(decoded) is type(packet) and decoded == packet
    assert vars(decoded) == vars(packet)
    if isinstance(packet, ilp.PreparePacket):
        assert packet.expires_at.tzinfo is timezone.utc
        assert packet.expires_at.microsecond % 1000 == 0


def test_packet_no_peer_could_decode_is_refused_when_built():
    with pytest.raises(ilp.MalformedAddress):
        ilp.PreparePacket("g..x", 1, bytes(32), vectors.PREPARE_EXPIRY)
    with pytest.raises(ilp.MalformedAddress):
        ilp.RejectPacket("F02", "not an address!")
    with pytest.raises(ValueError):  # a message longer than a length prefix can say
        ilp.RejectPacket("F02", "g.bob", "x" * 65536)


def test_decoded_packet_keeps_its_input_bytes():
    # A Fulfill whose length prefix has the long form 0x81 0x21, where the
    # canonical encoding writes 0x21.
    raw = bytes([ilp.TYPE_FULFILL, 0x81, 0x21]) + bytes(32) + b"\x00"
    packet = ilp.decode_packet(raw)
    assert bytes(packet) == raw
    assert vars(packet) == vars(ilp.FulfillPacket(bytes(32)))
    assert packet != ilp.FulfillPacket(bytes(32))


def test_packet_fields_cannot_be_assigned():
    packet = capture_prepare()
    with pytest.raises(AttributeError):
        packet.amount = 1
    with pytest.raises(AttributeError):
        del packet.amount
    assert packet.amount == vectors.PREPARE_AMOUNT


def test_parse_expiry_refuses_non_ascii_digits():
    with pytest.raises(ilp.BadExpiryDigits):
        ilp.parse_expiry("2019061909430150３")  # fullwidth 3


@pytest.mark.parametrize("digits", ["20191301000000000", "20190230000000000", "00000101000000000"])
def test_parse_expiry_refuses_impossible_dates(digits):
    with pytest.raises(ilp.BadExpiryDigits):
        ilp.parse_expiry(digits)


def test_prepare_before_year_1000_round_trips():
    prepare = ilp.PreparePacket(
        destination=ilp.parse_address(vectors.PREPARE_DESTINATION),
        amount=vectors.PREPARE_AMOUNT,
        condition=vectors.PREPARE_CONDITION,
        expires_at=datetime(999, 12, 31, 23, 59, 59, 999000, timezone.utc),
        data=vectors.PREPARE_DATA,
    )
    assert ilp.format_expiry(prepare.expires_at) == "09991231235959999"
    assert ilp.decode_packet(ilp.encode_packet(prepare)) == prepare


millisecond_timestamps = st.datetimes(
    min_value=datetime(1, 1, 1),
    max_value=datetime(9999, 12, 31, 23, 59, 59, 999000),
    timezones=st.just(timezone.utc),
).map(lambda ts: ts.replace(microsecond=ts.microsecond // 1000 * 1000))


@settings(max_examples=500, deadline=None)
@given(millisecond_timestamps)
def test_expiry_is_17_ascii_digits_and_round_trips(ts):
    digits = ilp.format_expiry(ts)
    assert len(digits) == 17 and digits.isascii() and digits.isdigit()
    assert ilp.parse_expiry(digits) == ts
