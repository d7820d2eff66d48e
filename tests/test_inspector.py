import base64

import pytest
from importlib import resources

from ilpsim import btp, ilp, inspector

import vectors


def capture(name: str) -> str:
    return (resources.files("ilpsim") / "captures" / f"{name}.hex").read_text()


def test_prepare_capture_fields():
    report = inspector.inspect_hex(capture("btp_prepare"))
    assert report.error is None
    assert report.fields["type"] == "6 (Message)"
    assert report.fields["requestId"] == vectors.BTP_PREPARE_REQUEST_ID
    assert report.fields["protocolNames"] == ["ilp"]
    flat = report.all_fields()
    assert flat["amount"] == vectors.PREPARE_AMOUNT
    assert flat["expiresAt"] == "2019-06-19T09:43:01.509Z"
    assert flat["destination"] == vectors.PREPARE_DESTINATION
    assert flat["executionCondition"] == base64.b64encode(vectors.PREPARE_CONDITION).decode()


def test_prepare_capture_matches_strict_codec():
    # The lenient inspector and the strict codec must agree on the ILP body.
    frame_bytes = bytes.fromhex("".join(capture("btp_prepare").split()))
    frame = btp.decode_frame(frame_bytes)
    packet = ilp.decode_packet(next(e for e in frame.entries if e.name == "ilp").data)
    assert packet.amount == vectors.PREPARE_AMOUNT
    assert packet.destination == ilp.parse_address(vectors.PREPARE_DESTINATION)
    assert packet.condition == vectors.PREPARE_CONDITION
    assert packet.data == vectors.PREPARE_DATA


def test_fulfill_capture_fields():
    report = inspector.inspect_hex(capture("btp_fulfill"))
    assert report.error is None
    assert report.fields["type"] == "1 (Response)"
    assert report.fields["requestId"] == vectors.BTP_FULFILL_REQUEST_ID
    flat = report.all_fields()
    assert flat["fulfillment"] == base64.b64encode(vectors.FULFILL_FULFILLMENT).decode()


def test_channel_open_capture_fields():
    report = inspector.inspect_hex(capture("btp_channel_open"))
    assert report.error is None
    assert report.fields["type"] == "6 (Message)"
    assert report.fields["requestId"] == vectors.CHANNEL_REQUEST_ID
    assert report.fields["protocolNames"] == ["channel", "channel_signature", "fund_channel"]
    by_name = {sub.fields["protocolName"]: sub for sub in report.nested}
    assert by_name["channel"].fields["data"] == vectors.CHANNEL_ENTRY_DATA.hex()
    assert by_name["channel"].fields["length"] == 32
    assert by_name["channel_signature"].fields["length"] == 64
    # text content type is decoded, not hex-dumped
    assert by_name["fund_channel"].fields["data"] == vectors.FUND_CHANNEL_DATA.decode()


def test_truncated_frame_partial_decode():
    report = inspector.inspect_bytes(vectors.BTP_PREPARE_FRAME_PREFIX)
    assert report.fields["type"] == "6 (Message)"
    assert report.fields["requestId"] == vectors.BTP_PREPARE_REQUEST_ID
    assert report.error is not None
    # the nested packet decodes down to the truncation point
    nested = report.nested[0].nested[0]
    assert nested.fields["amount"] == vectors.PREPARE_AMOUNT
    assert nested.error is not None


def test_truncated_ilp_packet_partial_decode():
    report = inspector.inspect_bytes(vectors.PREPARE_ILP_PREFIX)
    assert report.fields["type"] == "12 (Prepare)"
    assert report.fields["amount"] == vectors.PREPARE_AMOUNT
    assert "destination" not in report.fields  # cut off before the address
    assert report.error is not None


def test_bare_ilp_packet_dispatch():
    packet = ilp.FulfillPacket(fulfillment=bytes(32), data=b"hi")
    report = inspector.inspect_bytes(ilp.encode_packet(packet))
    assert report.layer == "ilp"
    assert report.fields["type"] == "13 (Fulfill)"


def test_invalid_hex_raises():
    with pytest.raises(ValueError):
        inspector.inspect_hex("zz not hex")


def test_unknown_leading_byte_reported():
    report = inspector.inspect_bytes(b"\xff\x00")
    assert report.error == "unknown leading byte 0xff"


def test_empty_input_reported():
    assert inspector.inspect_bytes(b"").error == "empty input"


def test_render_is_indented_text():
    text = inspector.inspect_hex(capture("btp_prepare")).render()
    lines = text.splitlines()
    assert lines[0] == "BTP_PACKET:"
    assert "  requestId: 530421608" in lines
    assert any(line.startswith("      type: 12 (Prepare)") for line in lines)


@pytest.mark.parametrize("count", [256, 300])
def test_many_entries_agree_with_codec(count):
    entries = tuple(btp.ProtocolEntry(f"p{i}", btp.CONTENT_TEXT, b"x") for i in range(count))
    data = btp.encode_frame(btp.BtpFrame(btp.TYPE_MESSAGE, 7, entries))
    report = inspector.inspect_bytes(data)
    assert report.error is None
    assert report.fields["protocolNames"] == [e.name for e in btp.decode_frame(data).entries]
