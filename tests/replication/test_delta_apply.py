"""Follower apply against a recompute oracle.

A replica applies each shipped session as one net base delta through
the engine's view maintenance.  The reference here replays the same log
prefix one ``op`` record at a time into a ``maintenance="recompute"``
model; the two must agree on the EDB *and* on every derived predicate
at every epoch, across defines, cascading retirements (DRed deletions
on the replica), rolled-back sessions, a promotion and a rewire.  The
receive path is pinned too: however the log is cut into chunks, the
replica ends with a byte-identical log, the same epoch and digest.
"""

import asyncio
import base64
import contextlib
import hashlib
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyzer.operators import delete_type_cascade
from repro.datalog.facts import edb_digest
from repro.datalog.terms import Atom
from repro.errors import InconsistentSchemaError
from repro.gom.persistence import decode_atom, encode_atom
from repro.manager import SchemaManager
from repro.replication.node import ReplicationNode
from repro.storage.store import LOG_NAME, replay_session
from repro.storage.wal import WalRecord, decode_record, group_operations

DIAMOND = """
schema Dia{n} is
type Top{n} is [ t{n} : int; ]
operations
  declare size : -> int;
implementation
  define size is
  begin
    return self.t{n};
  end size;
end type Top{n};
type Left{n} supertype Top{n} is [ l{n} : float; ] end type Left{n};
type Right{n} supertype Top{n} is [ r{n} : string; ] end type Right{n};
type Bottom{n} supertype Left{n}, Right{n} is [ b{n} : int; ]
end type Bottom{n};
end schema Dia{n};
"""

CYCLE = """
schema Cyc is
type P supertype Q is end type P;
type Q supertype P is end type Q;
end schema Cyc;
"""


def full_digest(snapshot):
    """EDB plus every derived predicate, order-independent: a replica
    that skipped a re-derivation differs here even when its EDB
    matches."""
    derived = sorted(repr(fact)
                     for fact in snapshot.db._derived_store.all_facts())
    hasher = hashlib.sha256(edb_digest(snapshot.db).encode("ascii"))
    for line in derived:
        hasher.update(line.encode("utf-8") + b"\n")
    return hasher.hexdigest()


def records(log):
    offset = 0
    while True:
        record = decode_record(log, offset)
        if record is None:
            return
        yield record
        offset = record.end_offset


def commit_ends(log):
    return [r.end_offset for r in records(log) if r.kind == "commit"]


def reference_digests(log):
    """The full digest at every epoch of *log*, replayed one op record
    at a time into a recompute-mode model (index = epoch)."""
    with SchemaManager(maintenance="recompute") as manager:
        model = manager.model
        model.enable_snapshots()
        digests = [full_digest(model.snapshot())]
        for _session, ops, commit in group_operations(records(log)):
            for record in ops:
                model.modify(
                    additions=[decode_atom(item)
                               for item in record.payload.get("add", ())],
                    deletions=[decode_atom(item)
                               for item in record.payload.get("del", ())])
            for kind, number in commit.payload.get("next_ids", {}).items():
                model.ids.resume(kind, number)
            model.advance_epoch()
            digests.append(full_digest(model.snapshot()))
    return digests


def read_log_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


@contextlib.contextmanager
def replica(directory):
    node = ReplicationNode(directory, role="replica",
                           primary=("127.0.0.1", 0))
    try:
        yield node
    finally:
        node._pool.shutdown()
        node.manager.close()


def follow(node, log, until=None):
    """Feed *log* from the node's offset up to *until* one committed
    session at a time; returns {epoch: full digest} of each applied."""
    seen = {}
    for end in commit_ends(log):
        start = node.wal.written_offset
        if end <= start or (until is not None and end > until):
            continue
        node._pending += log[start:end]
        assert node._drain_pending() == 1
        snapshot = node.model.snapshot()
        seen[snapshot.epoch] = full_digest(snapshot)
    return seen


def retire(manager, schema, name):
    """One session deleting a type with everything referring to it."""
    session = manager.begin_session()
    prims = manager.analyzer.primitives(session)
    sid = manager.model.schema_id(schema)
    delete_type_cascade(prims, manager.model.type_id(name, sid))
    session.commit()


def write_history(manager, first=0):
    for n in range(first, first + 3):
        manager.define(DIAMOND.format(n=n))
    # Left is one of Bottom's two paths to Top: DRed over-deletes the
    # closure through it and must re-derive Bottom <: Top.
    retire(manager, f"Dia{first}", f"Left{first}")
    session = manager.begin_session()
    manager.analyzer.primitives(session).add_type(
        manager.model.schema_id(f"Dia{first + 1}"), "Ghost")
    session.rollback()
    with pytest.raises(InconsistentSchemaError):
        manager.define(CYCLE)
    # A type born and retired in one session, and an edge removed and
    # re-added: both net to nothing, through records that do not.
    session = manager.begin_session()
    prims = manager.analyzer.primitives(session)
    sid = manager.model.schema_id(f"Dia{first + 1}")
    delete_type_cascade(prims, prims.add_type(sid, "Flash"))
    bottom = manager.model.type_id(f"Bottom{first + 1}", sid)
    edge = next(iter(manager.model.db.matching(
        Atom("SubTypRel", (bottom, None)))))
    session.remove(edge)
    session.add(edge)
    session.commit()
    retire(manager, f"Dia{first + 2}", f"Top{first + 2}")


@pytest.fixture(scope="module")
def primary_log(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("primary"))
    with SchemaManager.open(directory) as manager:
        write_history(manager)
    return directory, read_log_bytes(os.path.join(directory, LOG_NAME))


def test_history_covers_retirements_and_rollbacks(primary_log):
    _directory, log = primary_log
    kinds = [record.kind for record in records(log)]
    assert kinds.count("commit") == 6
    assert kinds.count("rollback") == 2


def test_every_epoch_matches_the_recompute_reference(primary_log, tmp_path):
    directory, log = primary_log
    expected = reference_digests(log)
    with replica(str(tmp_path / "replica")) as node:
        passes = []
        maintain = node.model.db._maintain

        def counted(*args, **kwargs):
            passes[-1] += 1
            return maintain(*args, **kwargs)

        node.model.db._maintain = counted
        seen = {0: full_digest(node.model.snapshot())}
        for end in commit_ends(log):
            passes.append(0)
            seen.update(follow(node, log, until=end))
        assert node.epoch == len(expected) - 1
        assert read_log_bytes(node.wal.path) == log
    assert seen == dict(enumerate(expected))
    # One maintenance pass per applied session, never one per record.
    assert max(passes) == 1 and sum(passes) >= 4
    # Crash recovery replays through the same fold, cold.
    with SchemaManager.open(directory) as recovered:
        assert full_digest(recovered.snapshot()) == expected[-1]


def test_promote_and_rewire_keep_matching_the_reference(primary_log,
                                                        tmp_path):
    _directory, log = primary_log
    ends = commit_ends(log)
    with replica(str(tmp_path / "a")) as a, \
            replica(str(tmp_path / "b")) as b:
        follow(a, log, until=ends[-2])
        follow(b, log, until=ends[-3])
        # The primary dies with a session half-shipped to each.
        a._pending += log[ends[-2]:(ends[-2] + ends[-1]) // 2]
        b._pending += log[ends[-3]:(ends[-3] + ends[-2]) // 2]
        a._drain_pending()
        b._drain_pending()
        assert a._uncommitted and b._uncommitted
        asyncio.run(a._handle_promote({}))
        assert a.role == "primary" and a.wal.written_offset == ends[-2]
        write_history(a.manager, first=10)
        new_log = read_log_bytes(a.wal.path)
        assert new_log[:ends[-2]] == log[:ends[-2]]
        expected = reference_digests(new_log)
        assert full_digest(a.model.snapshot()) == expected[-1]
        # Rewire: the same truncation, then follow the new primary.
        asyncio.run(b._unfollow())
        assert b.wal.written_offset == ends[-3]
        seen = follow(b, new_log)
        assert read_log_bytes(b.wal.path) == new_log
    assert seen == {epoch: expected[epoch] for epoch in seen}
    assert max(seen) == len(expected) - 1 and len(seen) >= 6


def test_the_derived_delta_holds_only_the_last_session(primary_log,
                                                       tmp_path):
    _directory, log = primary_log
    ends = commit_ends(log)

    def derived(node):
        facts = {}
        for fact in node.model.snapshot().db._derived_store.all_facts():
            facts.setdefault(fact.pred, set()).add(fact)
        return facts

    with replica(str(tmp_path / "replica")) as node:
        follow(node, log, until=ends[-2])
        before = derived(node)
        follow(node, log)
        after = derived(node)
        delta = node.model.db.derived_delta()
    assert delta is not None, "a warm replica's accounting stays exact"
    expected = {}
    for pred in set(before) | set(after):
        grown = after.get(pred, set()) - before.get(pred, set())
        shrunk = before.get(pred, set()) - after.get(pred, set())
        if grown or shrunk:
            expected[pred] = (grown, shrunk)
    assert {pred: sets for pred, sets in delta.items()
            if sets[0] or sets[1]} == expected
    assert expected, "the last session retires a type"


def _record(session, **payload):
    return WalRecord(kind="op", payload={"type": "op", "session": session,
                                         **payload},
                     offset=0, end_offset=0)


def test_replay_folds_records_last_op_wins():
    with SchemaManager() as manager:
        model = manager.model
        sid = Atom("Schema", ("sch_fold", "Fold"))
        gone = Atom("Schema", ("sch_gone", "Gone"))
        commit = WalRecord(kind="commit", payload={"type": "commit"},
                           offset=0, end_offset=0)
        facts = replay_session(model, [
            _record(1, add=[encode_atom(gone)]),
            # Inside one record deletions precede additions.
            _record(1, add=[encode_atom(sid)], **{"del": [encode_atom(sid)]}),
            _record(1, **{"del": [encode_atom(gone)]}),
        ], commit)
        assert facts == 2
        assert model.db.contains(sid) and not model.db.contains(gone)
        assert model.epoch == 1


def test_a_malformed_record_raises_before_the_model_is_touched():
    with SchemaManager() as manager:
        model = manager.model
        before = edb_digest(model.db)
        good = _record(1, add=[encode_atom(Atom("Schema", ("s", "S")))])
        bad = _record(1, add=[["Schema"]])
        commit = WalRecord(kind="commit", payload={"type": "commit"},
                           offset=0, end_offset=0)
        with pytest.raises(ValueError):
            replay_session(model, [good, bad], commit)
        assert edb_digest(model.db) == before and model.epoch == 0


# -- the receive buffer: chunking never changes the outcome ------------------


def _feed(directory, log, cuts):
    """Ship *log* cut at *cuts* through the chunk handler; returns the
    replica's (log bytes, epoch, digest)."""
    with replica(directory) as node:
        async def ship():
            start = 0
            for end in list(cuts) + [len(log)]:
                await node._on_chunk({
                    "kind": "chunk", "offset": start,
                    "data": base64.b64encode(log[start:end]).decode()})
                start = end

        asyncio.run(ship())
        assert node._pending == b"" and node._uncommitted == []
        return (read_log_bytes(node.wal.path), node.epoch,
                full_digest(node.model.snapshot()))


def test_one_chunk_and_byte_chunks_agree(primary_log, tmp_path):
    _directory, log = primary_log
    whole = _feed(str(tmp_path / "whole"), log, [])
    assert whole[0] == log and whole[1] == 6
    assert _feed(str(tmp_path / "bytes"), log, range(1, len(log))) == whole


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_random_splits_agree(primary_log, data):
    _directory, log = primary_log
    cuts = sorted(data.draw(st.sets(st.integers(1, len(log) - 1),
                                    max_size=40)))
    with tempfile.TemporaryDirectory() as directory:
        whole = _feed(os.path.join(directory, "whole"), log, [])
        assert _feed(os.path.join(directory, "split"), log, cuts) == whole
