"""The one frame codec: offset decoding, the cap on both sides."""

import pytest

from repro import wire
from repro.storage.wal import encode_frame


def test_decode_walks_a_stream_of_frames():
    first, second = wire.encode({"seq": 1}), wire.encode({"seq": 2})
    data = first + second
    message, end = wire.decode(data)
    assert (message, end) == ({"seq": 1}, len(first))
    assert wire.decode(data, end) == ({"seq": 2}, len(data))


def test_an_incomplete_frame_is_none_and_a_corrupt_one_raises():
    frame = wire.encode({"kind": "ping"})
    for cut in (0, 3, wire.HEADER.size, len(frame) - 1):
        assert wire.decode(frame[:cut]) is None
    flipped = frame[:-1] + bytes([frame[-1] ^ 0xFF])
    with pytest.raises(wire.ProtocolError, match="checksum"):
        wire.decode(flipped)


def test_encode_refuses_a_payload_over_the_cap(monkeypatch):
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
    wire.encode({"pad": "x" * 40})
    with pytest.raises(wire.ProtocolError, match="exceeds"):
        wire.encode({"pad": "x" * 80})


def test_log_records_and_messages_share_one_byte_format():
    record = {"type": "commit", "session": 3, "next_ids": {"tid": 9}}
    assert encode_frame(record) == wire.encode(record)
    assert encode_frame(record)[wire.HEADER.size:] == \
        b'{"next_ids":{"tid":9},"session":3,"type":"commit"}'
