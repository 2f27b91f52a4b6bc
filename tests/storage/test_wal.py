"""Unit tests for the evolution-log framing and tail handling."""

import os
import struct

import pytest

from repro.storage.faults import CrashPoint, FaultInjector
from repro.storage.wal import (
    LogScan,
    WalFormatError,
    WriteAheadLog,
    encode_frame,
    group_operations,
    read_log,
)


def write_records(path, payloads, injector=None):
    log = WriteAheadLog(path, injector=injector or FaultInjector())
    log.open_for_append()
    for payload in payloads:
        log.append(payload, sync=(payload["type"] == "commit"))
    log.close()
    return log


SESSION = [
    {"type": "bes", "session": 1, "mode": "delta"},
    {"type": "op", "session": 1, "add": [["Schema", [{"$id": ["sid", 1]}, "S"]]]},
    {"type": "note", "session": 1, "text": "protocol: nothing to repair"},
    {"type": "commit", "session": 1, "next_ids": {"sid": 2}},
]


class TestFraming:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_records(path, SESSION)
        scan = read_log(path)
        assert not scan.torn
        assert [r.kind for r in scan.records] == \
            ["bes", "op", "note", "commit"]
        assert scan.records[1].payload["add"] == SESSION[1]["add"]
        assert scan.records[-1].payload["next_ids"] == {"sid": 2}

    def test_missing_file_is_empty_log(self, tmp_path):
        scan = read_log(str(tmp_path / "absent.log"))
        assert scan == LogScan(records=[], valid_bytes=0, torn_bytes=0)

    def test_unknown_record_type_refused(self):
        with pytest.raises(WalFormatError):
            encode_frame({"type": "telepathy"})

    def test_offsets_chain(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_records(path, SESSION)
        scan = read_log(path)
        assert scan.records[0].offset == 0
        for first, second in zip(scan.records, scan.records[1:]):
            assert first.end_offset == second.offset
        assert scan.records[-1].end_offset == scan.valid_bytes
        assert scan.valid_bytes == os.path.getsize(path)


class TestTornTails:
    def truncated(self, path, keep):
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:keep])
        return data

    def test_half_header_is_torn(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_records(path, SESSION)
        clean = read_log(path)
        self.truncated(path, clean.records[-1].offset + 3)
        scan = read_log(path)
        assert scan.torn and scan.torn_bytes == 3
        assert [r.kind for r in scan.records] == ["bes", "op", "note"]

    def test_half_payload_is_torn(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_records(path, SESSION)
        clean = read_log(path)
        last = clean.records[-1]
        self.truncated(path, last.offset + 8 + (last.end_offset
                                                - last.offset - 8) // 2)
        scan = read_log(path)
        assert scan.torn
        assert len(scan.records) == 3

    def test_crc_mismatch_is_torn(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_records(path, SESSION)
        clean = read_log(path)
        with open(path, "r+b") as handle:
            handle.seek(clean.records[-1].end_offset - 1)
            handle.write(b"\xff")
        scan = read_log(path)
        assert scan.torn
        assert len(scan.records) == 3

    def test_garbage_length_is_torn(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_records(path, SESSION[:1])
        with open(path, "ab") as handle:
            handle.write(struct.pack("<II", 2 ** 31, 0) + b"xx")
        scan = read_log(path)
        assert scan.torn
        assert len(scan.records) == 1

    def test_open_for_append_truncates_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_records(path, SESSION)
        clean = read_log(path)
        self.truncated(path, clean.valid_bytes - 5)
        log = WriteAheadLog(path)
        scan = log.open_for_append()
        assert scan.torn
        log.append({"type": "rollback", "session": 2})
        log.close()
        healed = read_log(path)
        assert not healed.torn
        assert [r.kind for r in healed.records] == \
            ["bes", "op", "note", "rollback"]


class TestInjectedCrashes:
    def test_torn_write_leaves_partial_frame(self, tmp_path):
        path = str(tmp_path / "wal.log")
        injector = FaultInjector().arm("wal.torn_write", occurrence=2)
        with pytest.raises(CrashPoint):
            write_records(path, SESSION, injector=injector)
        scan = read_log(path)
        assert scan.torn          # half a frame on disk
        assert len(scan.records) == 1
        assert injector.crashed.point == "wal.torn_write"

    def test_before_write_leaves_clean_prefix(self, tmp_path):
        path = str(tmp_path / "wal.log")
        injector = FaultInjector().arm("wal.before_write", occurrence=3)
        with pytest.raises(CrashPoint):
            write_records(path, SESSION, injector=injector)
        scan = read_log(path)
        assert not scan.torn
        assert len(scan.records) == 2

    def test_unknown_point_refused(self):
        with pytest.raises(ValueError):
            FaultInjector().arm("wal.wishful_thinking")


class TestGrouping:
    def test_operations_group_in_commit_order(self):
        records = read_records_from(SESSION + [
            {"type": "bes", "session": 2, "mode": "delta"},
            {"type": "op", "session": 2, "add": []},
            {"type": "rollback", "session": 2},
            {"type": "bes", "session": 3, "mode": "full"},
            {"type": "op", "session": 3, "del": []},
            {"type": "commit", "session": 3, "next_ids": {}},
            {"type": "bes", "session": 4, "mode": "delta"},
            {"type": "op", "session": 4, "add": []},   # in flight: no commit
        ])
        groups = group_operations(records)
        assert [(sid, len(ops)) for sid, ops, _commit in groups] == \
            [(1, 1), (3, 1)]

    def test_rolled_back_and_inflight_replay_as_nothing(self):
        records = read_records_from([
            {"type": "bes", "session": 9, "mode": "delta"},
            {"type": "op", "session": 9, "add": []},
        ])
        assert group_operations(records) == []


def read_records_from(payloads):
    """Decode in-memory payloads the way read_log would (offsets faked)."""
    from repro.storage.wal import WalRecord
    return [WalRecord(kind=p["type"], payload=p, offset=i, end_offset=i + 1)
            for i, p in enumerate(payloads)]


class TestReset:
    def test_reset_empties_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.open_for_append()
        for payload in SESSION:
            log.append(payload)
        log.reset()
        log.append({"type": "bes", "session": 5, "mode": "delta"})
        log.close()
        scan = read_log(path)
        assert [r.kind for r in scan.records] == ["bes"]
        assert scan.records[0].session == 5
