"""One node: a farm shard and a replication node answer alike.

Both are :class:`repro.node.Node` processes, so a refused request gets
one error envelope from either, a node that cannot open says why
through either supervisor, and either reports the same metrics names.
"""

import multiprocessing
import os
import socket

import pytest

from repro.farm import SchemaFarm
from repro.node import NodeError
from repro.replication import ReplicationCluster, ReplicationError
from repro.storage.store import SNAPSHOT_NAME
from repro.wire import recv_frame_sync, send_frame_sync

ENVELOPE = {"ok", "error", "error_type", "epoch"}


def source(name):
    return (f"schema {name} is\n"
            f"type {name}T is [ x: int; ] end type {name}T;\n"
            f"end schema {name};")


@pytest.fixture(scope="module")
def farm(tmp_path_factory):
    farm = SchemaFarm.open(str(tmp_path_factory.mktemp("farm")), shards=1)
    yield farm
    farm.close()


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    cluster = ReplicationCluster.open(
        str(tmp_path_factory.mktemp("cluster")), replicas=1)
    yield cluster
    cluster.close()


def reply_of(address, message):
    """The raw reply frame, error or not."""
    with socket.create_connection(address, timeout=30) as sock:
        send_frame_sync(sock, message)
        return recv_frame_sync(sock, timeout=30)


def live_children():
    return {child.pid for child in multiprocessing.active_children()}


def without_epoch(reply):
    return {key: value for key, value in reply.items() if key != "epoch"}


@pytest.mark.parametrize("message, error", [
    ({"kind": "frobnicate"}, "unknown request kind 'frobnicate'"),
    ({"kind": "write"}, "request lacks field 'source'"),
    ({"kind": "read", "op": "schema_id"}, "request lacks field 'schema'"),
])
def test_shard_and_replication_node_refuse_alike(farm, cluster, message,
                                                 error):
    shard = reply_of(farm.nodes[0].address, message)
    node = reply_of(cluster.primary.address, message)
    assert set(shard) == set(node) == ENVELOPE
    assert without_epoch(shard) == without_epoch(node) == {
        "ok": False, "error": error, "error_type": "ProtocolError"}


def test_a_write_to_a_replica_gets_the_same_envelope(cluster):
    reply = reply_of(cluster.replicas[0].address,
                     {"kind": "write", "source": source("Refused")})
    assert set(reply) == ENVELOPE
    assert without_epoch(reply) == {"ok": False,
                                    "error": "replicas are read-only",
                                    "error_type": "NodeError"}


def test_an_inconsistent_write_names_its_violations(farm, cluster):
    cyclic = ("schema Cyc is\n"
              "type A supertype B is [ ] end type A;\n"
              "type B supertype A is [ ] end type B;\n"
              "end schema Cyc;")
    shard = reply_of(farm.nodes[0].address,
                     {"kind": "write", "source": cyclic})
    node = reply_of(cluster.primary.address,
                    {"kind": "write", "source": cyclic})
    assert set(shard) == set(node) == ENVELOPE | {"violations"}
    assert shard["error_type"] == node["error_type"] == \
        "InconsistentSchemaError"
    assert shard["violations"] == node["violations"] != []


def test_the_ready_handshake_names_the_process(farm, cluster):
    for handle in farm.nodes + list(cluster.nodes.values()):
        assert handle.pid == handle.process.pid and handle.port > 0
    assert farm.request(0, {"kind": "ping"})["pid"] == farm.nodes[0].pid


def test_a_bad_subscribe_offset_is_refused_before_the_ack(cluster):
    with cluster.client() as client:
        for offset in (-5, "12", 1.5, True):
            with pytest.raises(ReplicationError,
                               match="non-negative integer"):
                client.request({"kind": "subscribe", "offset": offset})
        # The refusal is a reply: the connection keeps serving.
        assert client.request({"kind": "ping"})["ok"]


def test_one_registry_per_node(farm, cluster):
    with cluster.client() as primary:
        ack = primary.write(source("Metered"))
        cluster.wait_for_epoch(ack["epoch"])
        metrics = primary.status()["metrics"]
    farm.define(source("MeteredShard"))
    rollup = farm.metrics_rollup()
    for name in ("session.elapsed_ms", "wal.fsync_ms", "engine.maint_ms",
                 "check.constraint_ms"):
        assert metrics["histograms"][name]["count"] >= 1
        assert rollup["histograms"][name]["count"] >= 1
    engine = {name for name in metrics["counters"]
              if name.startswith("engine.")}
    assert engine and engine <= set(rollup["counters"])
    with cluster.client(cluster.replicas[0].name) as replica:
        replicated = replica.status()["metrics"]["counters"]
    assert replicated["repl.bytes_applied"] > 0
    assert replicated["repl.sessions_applied"] >= 1


# -- a node that cannot open says why, through either supervisor ------------


def test_a_checkpointed_replicated_directory_fails_with_its_reason(tmp_path):
    children = live_children()
    root = tmp_path / "cluster"
    os.makedirs(root / "node-00")
    (root / "node-00" / SNAPSHOT_NAME).write_text("{}")
    with pytest.raises(NodeError, match="never checkpoint"):
        ReplicationCluster.open(str(root), replicas=1)
    assert live_children() == children


def test_a_shard_directory_that_is_a_file_fails_with_its_reason(tmp_path):
    children = live_children()
    root = tmp_path / "farm"
    os.makedirs(root)
    (root / "shard-001").write_text("not a directory")
    # Shard 0 opens fine and is reaped along with the failed shard 1.
    with pytest.raises(NodeError, match="shard-1 failed to start: "
                                        "FileExistsError"):
        SchemaFarm.open(str(root), shards=2)
    assert live_children() == children
