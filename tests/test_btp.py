import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilpsim import btp, ilp
from ilpsim.wire import CodecError, InvalidField, LengthMismatch, Truncated, encode_length

import vectors
from test_ilp import capture_prepare, flip_byte


def test_encode_message_golden_prefix():
    frame = btp.BtpFrame(
        frame_type=btp.TYPE_MESSAGE,
        request_id=vectors.BTP_PREPARE_REQUEST_ID,
        entries=(
            btp.ProtocolEntry("ilp", btp.CONTENT_OCTET_STREAM, ilp.encode_packet(capture_prepare())),
        ),
    )
    encoded = btp.encode_frame(frame)
    assert encoded[: len(vectors.BTP_PREPARE_FRAME_PREFIX)] == vectors.BTP_PREPARE_FRAME_PREFIX


def test_response_frame_type_byte():
    frame = btp.BtpFrame(
        frame_type=btp.TYPE_RESPONSE,
        request_id=vectors.BTP_FULFILL_REQUEST_ID,
        entries=(btp.ProtocolEntry("ilp", 0, b"\x00"),),
    )
    encoded = btp.encode_frame(frame)
    assert encoded[0] == 0x01
    assert int.from_bytes(encoded[1:5], "big") == 1054375881


def test_empty_message_hand_computed():
    # 06 || request_id 0 || body length 2 || count prefix 01 00
    encoded = btp.encode_frame(btp.BtpFrame(btp.TYPE_MESSAGE, 0))
    assert encoded == bytes.fromhex("06000000000201 00".replace(" ", ""))


def test_channel_open_frame_round_trip():
    frame = btp.BtpFrame(
        frame_type=btp.TYPE_MESSAGE,
        request_id=vectors.CHANNEL_REQUEST_ID,
        entries=(
            btp.ProtocolEntry("channel", 0, vectors.CHANNEL_ENTRY_DATA),
            btp.ProtocolEntry("channel_signature", 0, vectors.CHANNEL_SIGNATURE_PREFIX),
            btp.ProtocolEntry("fund_channel", 1, vectors.FUND_CHANNEL_DATA),
        ),
    )
    decoded = btp.decode_frame(btp.encode_frame(frame))
    assert decoded.frame_type == 6
    assert decoded.request_id == 1890145753
    assert [e.name for e in decoded.entries] == ["channel", "channel_signature", "fund_channel"]
    assert decoded == frame


def test_one_byte_input_truncated():
    with pytest.raises(Truncated):
        btp.decode_frame(b"\x06")


def test_unknown_frame_type():
    with pytest.raises(btp.UnknownFrameType):
        btp.decode_frame(bytes([0x09, 0, 0, 0, 0, 0]))


def test_trailing_bytes_rejected():
    good = btp.encode_frame(btp.BtpFrame(btp.TYPE_MESSAGE, 1))
    with pytest.raises(LengthMismatch):
        btp.decode_frame(good + b"\xff")


entries = st.builds(
    btp.ProtocolEntry,
    name=st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=20),
    content_type=st.sampled_from([0, 1, 2]),
    data=st.binary(max_size=300),
)
frames = st.builds(
    btp.BtpFrame,
    frame_type=st.sampled_from(btp.FRAME_TYPES),
    request_id=st.integers(min_value=0, max_value=2**32 - 1),
    entries=st.lists(entries, max_size=5).map(tuple),
)


@settings(max_examples=500, deadline=None)
@given(frames)
def test_frame_round_trip(frame):
    assert btp.decode_frame(btp.encode_frame(frame)) == frame


def raw_message(name: bytes, content_type: int = 0, data: bytes = b"") -> bytes:
    body = b"\x01\x01" + bytes([len(name)]) + name + bytes([content_type, len(data)]) + data
    return bytes([btp.TYPE_MESSAGE]) + (7).to_bytes(4, "big") + bytes([len(body)]) + body


@pytest.mark.parametrize(
    "raw",
    [raw_message(b"il\xff"), raw_message(b""), raw_message(b"ilp", content_type=3)],
)
def test_decode_bad_entry_raises_invalid_field(raw):
    with pytest.raises(InvalidField):
        btp.decode_frame(raw)


def test_missing_content_type_truncated():
    body = b"\x01\x01\x03ilp"
    raw = bytes([btp.TYPE_MESSAGE]) + bytes(4) + bytes([len(body)]) + body
    with pytest.raises(Truncated):
        btp.decode_frame(raw)


def test_long_entry_name_round_trips():
    # names of 128-255 bytes take the extended length prefix
    frame = btp.BtpFrame(btp.TYPE_MESSAGE, 1, (btp.ProtocolEntry("n" * 200, 1, b"x"),))
    assert btp.decode_frame(btp.encode_frame(frame)) == frame


garbled_frames = st.builds(
    flip_byte,
    frames.map(btp.encode_frame),
    st.integers(min_value=0),
    st.integers(min_value=0, max_value=255),
)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.binary(max_size=300), garbled_frames))
def test_decode_raises_only_codec_error(raw):
    try:
        btp.decode_frame(raw)
    except CodecError:
        pass


def frame_of(body: bytes, request_id: int = 7) -> bytes:
    return bytes([btp.TYPE_MESSAGE]) + request_id.to_bytes(4, "big") + encode_length(len(body)) + body


def test_name_over_255_bytes_raises_invalid_field():
    name = b"n" * 300  # announced with a 2-byte length prefix
    body = b"\x01\x01" + encode_length(len(name)) + name + b"\x00\x00"
    assert encode_length(len(name))[0] == 0x82
    with pytest.raises(InvalidField):
        btp.decode_frame(frame_of(body))


def test_255_byte_name_and_300_entries_round_trip():
    entries = (btp.ProtocolEntry("n" * 255, 2, b"{}"),) + tuple(
        btp.ProtocolEntry(f"p{i}", 0, bytes([i % 256])) for i in range(299)
    )
    frame = btp.BtpFrame(btp.TYPE_RESPONSE, 2**32 - 1, entries)
    encoded = btp.encode_frame(frame)
    assert encoded[5 + 3 : 5 + 3 + 3] == b"\x02\x01\x2c"  # count 300 takes two bytes
    assert btp.decode_frame(encoded) == frame


def test_zero_length_count_raises_codec_error():
    with pytest.raises(CodecError):
        btp.decode_frame(frame_of(b"\x00"))


def test_non_minimal_length_prefixes_decode():
    # 0x81 n is a longer form of a length below 128: the body, the name and
    # the data each use it here, and the frame decodes as if they did not.
    body = b"\x01\x01" + b"\x81\x03ilp" + b"\x00" + b"\x81\x02ab"
    raw = bytes([btp.TYPE_MESSAGE]) + (7).to_bytes(4, "big") + b"\x81" + bytes([len(body)]) + body
    assert btp.decode_frame(raw) == btp.BtpFrame(
        btp.TYPE_MESSAGE, 7, (btp.ProtocolEntry("ilp", 0, b"ab"),)
    )


def test_decoded_frame_equals_constructed_frame():
    frame = btp.BtpFrame(
        frame_type=btp.TYPE_MESSAGE,
        request_id=7,
        entries=(
            btp.ProtocolEntry(name="ilp", content_type=0, data=b"\x0c"),
            btp.ProtocolEntry(name="auth", content_type=1, data=b""),
        ),
    )
    decoded = btp.decode_frame(btp.encode_frame(frame))
    assert decoded == frame
    assert type(decoded) is btp.BtpFrame
    assert [type(e) for e in decoded.entries] == [btp.ProtocolEntry] * 2
    assert decoded.entry("auth") == frame.entries[1]
    assert decoded.entry("nope") is None
    assert hash(decoded) == hash(frame)


@pytest.mark.parametrize(
    "make",
    [
        lambda: btp.ProtocolEntry("", 0, b""),
        lambda: btp.ProtocolEntry("n" * 256, 0, b""),
        lambda: btp.ProtocolEntry("ilp", 3, b""),
        lambda: btp.ProtocolEntry(name="ilp", content_type=-1, data=b""),
        lambda: btp.BtpFrame(9, 0),
        lambda: btp.BtpFrame(btp.TYPE_MESSAGE, -1),
        lambda: btp.BtpFrame(frame_type=btp.TYPE_MESSAGE, request_id=2**32),
        lambda: btp.ProtocolEntry("\u00e9", 0, b""),  # names are ASCII
    ],
)
def test_bad_constructor_arguments_raise_value_error(make):
    with pytest.raises(ValueError):
        make()
