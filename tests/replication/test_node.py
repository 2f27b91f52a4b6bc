"""One epoch per node: a reply's epoch and digest describe one state,
and its status says what the replica's apply did."""

import asyncio
import multiprocessing
import os
import threading

from repro.analyzer.operators import delete_type_cascade
from repro.manager import SchemaManager
from repro.replication.client import ReplicationClient
from repro.replication.node import ReplicationNode
from repro.storage.store import LOG_NAME
from repro.wire import recv_message

SOURCE = """
schema Torn is
type T is [ x: int; ] end type T;
end schema Torn;
"""


def test_a_read_inside_a_commit_pairs_its_epoch_with_its_digest(tmp_path):
    node = ReplicationNode(str(tmp_path / "node"), role="primary")
    published, release = threading.Event(), threading.Event()
    publish = node.model.publish_snapshot

    def publish_then_block():
        # The write's commit has published; hold it here so a read
        # lands between publication and the write's reply.
        snapshot = publish()
        published.set()
        assert release.wait(30)
        return snapshot

    node.model.publish_snapshot = publish_then_block
    ready, child = multiprocessing.Pipe()
    serving = threading.Thread(target=asyncio.run, args=(node.run(child),),
                               daemon=True)
    serving.start()
    address = ("127.0.0.1", recv_message(ready, timeout=30)["port"])
    ack = {}

    def write():
        with ReplicationClient(address) as client:
            ack.update(client.write(SOURCE, digest=True))

    writer = threading.Thread(target=write, daemon=True)
    with ReplicationClient(address) as reader:
        before = reader.read(op="digest")
        writer.start()
        assert published.wait(30)
        inside = reader.read(op="digest")
        release.set()
        writer.join(30)
        reader.shutdown()
    serving.join(30)
    oracle = {before["epoch"]: before["digest"], ack["epoch"]: ack["digest"]}
    assert ack["epoch"] == before["epoch"] + 1
    assert oracle.get(inside["epoch"]) == inside["digest"]


DIAMOND = """
schema Dia is
type Top is [ t: int; ] end type Top;
type Left supertype Top is [ l: int; ] end type Left;
type Right supertype Top is [ r: int; ] end type Right;
type Bottom supertype Left, Right is [ b: int; ] end type Bottom;
end schema Dia;
"""


def test_status_says_what_the_replica_apply_did(tmp_path):
    primary = str(tmp_path / "primary")
    with SchemaManager.open(primary) as manager:
        manager.define(DIAMOND)
        session = manager.begin_session()
        # Bottom keeps Top through Right: DRed over-deletes the closure
        # through Left and re-derives what Right still supports.
        delete_type_cascade(manager.analyzer.primitives(session),
                            manager.model.type_id(
                                "Left", manager.model.schema_id("Dia")))
        session.commit()
    with open(os.path.join(primary, LOG_NAME), "rb") as handle:
        shipped = handle.read()
    node = ReplicationNode(str(tmp_path / "replica"), role="replica",
                           primary=("127.0.0.1", 0))
    try:
        node._pending = shipped
        assert node._drain_pending() == 2
        status = asyncio.run(node._handle_status({}))
    finally:
        node.manager.close()
    metrics = status["metrics"]
    assert status["epoch"] == 2
    assert metrics["counters"]["repl.sessions_applied"] == 2
    assert metrics["histograms"]["repl.apply_ms"]["count"] == 2
    assert metrics["counters"]["repl.maint_deleted"] > 0
    assert metrics["counters"]["repl.maint_rederived"] > 0
