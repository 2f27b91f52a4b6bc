"""One epoch per node: a reply's epoch and digest describe one state."""

import asyncio
import multiprocessing
import threading

from repro.replication.client import ReplicationClient
from repro.replication.node import ReplicationNode
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
