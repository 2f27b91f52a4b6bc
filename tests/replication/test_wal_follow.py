"""The WAL properties replication leans on.

Deterministic re-framing (replica logs are byte-identical prefixes),
the durability horizon (a replica never receives or appends a torn
frame), truncation semantics (promotion cuts exactly the un-fsync'd
bytes), and a record decoder that never mistakes a partial or corrupt
frame for a record (a replica's receive buffer waits on it).
"""

import os

import pytest

from repro.manager import SchemaManager
from repro.replication.node import ReplicationNode
from repro.storage.store import LOG_NAME
from repro.storage.wal import (
    WalFormatError,
    WriteAheadLog,
    decode_record,
    encode_frame,
    read_log,
)

SOURCE = """
schema Follow is
type T is [ x: int; ] end type T;
end schema Follow;
"""


def _record(session, kind="op", **extra):
    payload = {"type": kind, "session": session}
    payload.update(extra)
    return payload


def test_reencoding_a_decoded_payload_reproduces_the_bytes(tmp_path):
    # Determinism is what makes durable offsets comparable across
    # nodes: a replica re-appending decoded records must build a
    # byte-identical file.
    path = os.path.join(str(tmp_path), "wal.log")
    wal = WriteAheadLog(path)
    wal.open_for_append()
    wal.append(_record(1, "bes"))
    wal.append(_record(1, value={"b": 2, "a": [1, None, "x"]}))
    wal.append(_record(1, "commit"), sync=True)
    wal.close()
    with open(path, "rb") as handle:
        data = handle.read()
    rebuilt = b""
    for record in read_log(path).records:
        rebuilt += encode_frame(record.payload)
    assert rebuilt == data


def test_follower_never_sees_a_torn_tail(tmp_path):
    # A replica buffers shipped bytes and appends whole frames only: a
    # half-delivered commit neither reaches its log nor applies.
    primary = str(tmp_path / "primary")
    with SchemaManager.open(primary) as manager:
        manager.define(SOURCE)
    with open(os.path.join(primary, LOG_NAME), "rb") as handle:
        shipped = handle.read()
    node = ReplicationNode(str(tmp_path / "replica"), role="replica",
                           primary=("127.0.0.1", 0))
    try:
        node._pending = shipped[:-3]
        assert node._drain_pending() == 0
        assert node.epoch == 0
        kinds = [kind for kind, _ in node.store.log_records()]
        assert kinds[0] == "bes" and "commit" not in kinds
        node._pending += shipped[-3:]
        assert node._drain_pending() == 1
        assert node.epoch == 1
        with open(node.wal.path, "rb") as handle:
            assert handle.read() == shipped
    finally:
        node.manager.close()


def test_follower_limit_is_a_durability_horizon(tmp_path):
    # A primary ships its log up to the durable offset: that prefix is
    # whole records, never the writer's volatile tail.
    path = os.path.join(str(tmp_path), "wal.log")
    wal = WriteAheadLog(path)
    wal.open_for_append()
    wal.append(_record(1, "bes"))
    wal.append(_record(1, "commit"), sync=True)
    durable = wal.durable_offset
    wal.append(_record(2, "bes"))  # flushed, not fsync'd
    assert wal.written_offset > durable
    wal.close()
    with open(path, "rb") as handle:
        shipped = handle.read(durable)
    shipped_path = os.path.join(str(tmp_path), "shipped.log")
    with open(shipped_path, "wb") as handle:
        handle.write(shipped)
    scan = read_log(shipped_path)
    assert not scan.torn
    assert [r.payload["session"] for r in scan.records] == [1, 1]
    assert scan.records[-1].end_offset == durable


def test_truncate_to_cuts_the_unsynced_tail(tmp_path):
    path = os.path.join(str(tmp_path), "wal.log")
    wal = WriteAheadLog(path)
    wal.open_for_append()
    wal.append(_record(1, "bes"))
    wal.append(_record(1, "commit"), sync=True)
    durable = wal.durable_offset
    wal.append(_record(2, "bes"))
    wal.truncate_to(durable)
    assert wal.written_offset == durable
    assert os.path.getsize(path) == durable
    scan = read_log(path)
    assert [r.payload["session"] for r in scan.records] == [1, 1]
    # Appending after the cut keeps the log well-formed.
    wal.append(_record(3, "bes"), sync=True)
    assert wal.durable_offset > durable
    wal.close()


def test_truncate_past_durable_is_refused(tmp_path):
    path = os.path.join(str(tmp_path), "wal.log")
    wal = WriteAheadLog(path)
    wal.open_for_append()
    wal.append(_record(1, "bes"), sync=True)
    with pytest.raises(WalFormatError):
        wal.truncate_to(wal.durable_offset + 1)
    wal.close()


def test_decode_record_rejects_garbage_and_short_frames(tmp_path):
    frame = encode_frame(_record(1, "commit"))
    assert decode_record(frame, 0).kind == "commit"
    assert decode_record(frame[:-1], 0) is None        # short payload
    assert decode_record(frame[:4], 0) is None         # short header
    corrupt = frame[:-2] + bytes([frame[-2] ^ 0xFF]) + frame[-1:]
    assert decode_record(corrupt, 0) is None           # checksum
