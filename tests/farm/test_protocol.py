"""Framed-JSON pipe messages (:mod:`repro.wire`): round-trips and
corruption of one whole frame."""

import struct

import pytest

from repro.wire import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode,
)


class TestRoundTrip:
    def test_simple_message(self):
        message = {"kind": "ping", "n": 3, "nested": {"a": [1, 2]}}
        assert decode_frame(encode(message)) == message

    def test_deterministic_encoding(self):
        # sort_keys + compact separators: one message, one byte string.
        assert encode({"b": 1, "a": 2}) == \
            encode({"a": 2, "b": 1})

    def test_unicode_payloads(self):
        message = {"kind": "define", "source": "schema Bücher is … 端"}
        assert decode_frame(encode(message)) == message


class TestCorruption:
    def test_flipped_payload_byte_is_detected(self):
        data = bytearray(encode({"kind": "ping"}))
        data[-1] ^= 0xFF
        with pytest.raises(ProtocolError, match="checksum"):
            decode_frame(bytes(data))

    def test_truncated_frame_is_detected(self):
        data = encode({"kind": "ping", "pad": "x" * 64})
        with pytest.raises(ProtocolError):
            decode_frame(data[:-5])

    def test_short_header_is_detected(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"\x01\x02")

    def test_length_mismatch_is_detected(self):
        payload = b'{"kind":"ping"}'
        import zlib
        bad = struct.pack("<II", len(payload) + 7,
                          zlib.crc32(payload)) + payload
        with pytest.raises(ProtocolError):
            decode_frame(bad)

    def test_oversized_frame_is_refused(self):
        import zlib
        header = struct.pack("<II", MAX_FRAME_BYTES + 1, zlib.crc32(b""))
        with pytest.raises(ProtocolError, match="frame"):
            decode_frame(header)

    def test_non_object_payload_is_refused(self):
        import json
        import zlib
        payload = json.dumps([1, 2, 3]).encode()
        data = struct.pack("<II", len(payload),
                           zlib.crc32(payload)) + payload
        with pytest.raises(ProtocolError):
            decode_frame(data)
