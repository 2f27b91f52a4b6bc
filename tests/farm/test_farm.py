"""SchemaFarm end-to-end: real worker processes, two shards.

The heavyweight fixtures are module-scoped — one farm serves every
test in its class block, mirroring how a farm actually runs (state
accumulates; tests pick fresh tenant names instead of fresh farms).
"""

import threading

import pytest

from repro.farm import SchemaFarm
from repro.farm.farm import FarmError
from repro.fuzz.history import Op, SessionPlan
from repro.manager import SchemaManager


def names_for_shards(router, count=2, prefix="Tenant"):
    """One schema name per shard index 0..count-1."""
    chosen = {}
    index = 0
    while len(chosen) < count:
        name = f"{prefix}{index}"
        chosen.setdefault(router.shard_of(name), name)
        index += 1
    return [chosen[shard] for shard in range(count)]


def tenant_source(name, type_name="Part"):
    return (f"schema {name} is\n"
            f"public {type_name};\n"
            f"interface\n"
            f"  type {type_name} is [ weight : float; ] "
            f"end type {type_name};\n"
            f"end schema {name};")


@pytest.fixture(scope="module")
def farm(tmp_path_factory):
    root = tmp_path_factory.mktemp("farm")
    farm = SchemaFarm.open(str(root), shards=2)
    yield farm
    farm.close()


class TestRoutingAndDefine:
    def test_define_routes_by_root_name(self, farm):
        a_name, b_name = names_for_shards(farm.router, prefix="Route")
        result_a = farm.define(tenant_source(a_name))
        result_b = farm.define(tenant_source(b_name))
        assert result_a["shard"] == 0
        assert result_b["shard"] == 1
        assert a_name in result_a["schemas"]

    def test_garbage_source_raises_and_worker_survives(self, farm):
        with pytest.raises(FarmError, match="GomSyntaxError"):
            farm.define("schema Broken is nonsense")
        # The worker survives the failed request and keeps serving.
        name = names_for_shards(farm.router, prefix="Survive")[0]
        assert farm.define(tenant_source(name))["schemas"]

    def test_unroutable_define_is_rejected(self, farm):
        with pytest.raises(FarmError, match="cannot route"):
            farm.define("type T is [ x : int; ] end type T;")


class TestReads:
    def test_read_reports_schema_and_epoch(self, farm):
        name = names_for_shards(farm.router, prefix="Read")[0]
        farm.define(tenant_source(name))
        sid, epoch = farm.read(name, "schema_id")
        assert sid is not None
        assert epoch >= 1
        attrs, _ = farm.read(name, "attributes", type="Part")
        assert attrs == [["weight", "float"]]

    def test_batch_overlaps_shards_in_request_order(self, farm):
        a_name, b_name = names_for_shards(farm.router, prefix="Batch")
        farm.define(tenant_source(a_name))
        farm.define(tenant_source(b_name))
        results = farm.batch([
            (a_name, "attributes", {"type": "Part"}),
            (b_name, "attributes", {"type": "Part"}),
            (a_name, "count", {"pred": "Schema"}),
        ])
        assert results[0][0] == [["weight", "float"]]
        assert results[1][0] == [["weight", "float"]]
        assert results[2][0] >= 1


class TestSessions:
    def test_session_plans_commit_and_bump_the_epoch(self, farm):
        name = names_for_shards(farm.router, prefix="Write")[0]
        farm.define(tenant_source(name))
        before = farm.epochs[farm.shard_of(name)]
        farm.bind(name, "t", {"kind": "type", "name": "Part",
                              "schema": name})
        reply = farm.session(name, SessionPlan(ops=[
            Op("add_attribute", {"type": "t", "name": "cost",
                                 "domain": "builtin:float"})]))
        assert reply["committed"]
        assert reply["applied"] == 1
        assert farm.epochs[farm.shard_of(name)] == before + 1

    def test_submit_runs_concurrently_across_shards(self, farm):
        a_name, b_name = names_for_shards(farm.router, prefix="Async")
        farm.define(tenant_source(a_name))
        farm.define(tenant_source(b_name))
        futures = []
        for name in (a_name, b_name):
            farm.bind(name, f"t:{name}",
                      {"kind": "type", "name": "Part", "schema": name})
            futures.append(farm.submit(name, SessionPlan(ops=[
                Op("add_attribute", {"type": f"t:{name}", "name": "cost",
                                     "domain": "builtin:float"})])))
        assert all(future.result()["committed"] for future in futures)

    def test_inconsistent_session_rolls_back_with_violations(self, farm):
        name = names_for_shards(farm.router, prefix="Bad")[0]
        farm.define(tenant_source(name))
        farm.bind(name, "s", {"kind": "schema", "name": name})
        reply = farm.session(name, SessionPlan(ops=[
            Op("add_public", {"schema": "s", "kind": "type",
                              "name": "Ghost"})]))
        assert not reply["committed"]
        assert "public_exists" in reply["violations"]


class TestCrossShardImport:
    def test_import_matches_single_process_oracle(self, farm):
        a_name, b_name = names_for_shards(farm.router, prefix="Imp")
        farm.define(tenant_source(a_name))
        farm.define(tenant_source(b_name))
        result = farm.import_schema(a_name, b_name)
        assert result["cross_shard"]

        oracle = SchemaManager(features=farm.features)
        oracle.define(tenant_source(a_name))
        oracle.define(tenant_source(b_name))
        session = oracle.begin_session()
        prims = oracle.analyzer.primitives(session)
        prims.add_import(oracle.model.schema_id(a_name),
                         oracle.model.schema_id(b_name))
        session.commit()

        from repro.analyzer.namespaces import (
            model_schema_name, visible_components)
        oracle_rows = sorted(
            (visible, model_schema_name(oracle.model, origin), original)
            for visible, origin, original in visible_components(
                oracle.model, oracle.model.schema_id(a_name), "type"))
        farm_rows, _ = farm.read(a_name, "visible", component="type")
        assert [tuple(row) for row in farm_rows] == oracle_rows

    def test_staleness_and_refresh(self, farm):
        a_name, b_name = names_for_shards(farm.router, prefix="Stale")
        # The importer's own type is named apart from the imported one,
        # so the name-level read resolves the *foreign* Part.
        farm.define(tenant_source(a_name, type_name="Chassis"))
        farm.define(tenant_source(b_name))
        farm.import_schema(a_name, b_name)
        stale_before = [record for record in farm.stale_imports()
                        if record["imported"] == b_name]
        assert stale_before == []

        farm.bind(b_name, "hp", {"kind": "type", "name": "Part",
                                 "schema": b_name})
        assert farm.session(b_name, SessionPlan(ops=[
            Op("add_attribute", {"type": "hp", "name": "cost",
                                 "domain": "builtin:float"})]))["committed"]
        stale = [record for record in farm.stale_imports()
                 if record["imported"] == b_name]
        assert len(stale) == 1
        refreshed = farm.refresh_imports()
        assert any(record["imported"] == b_name for record in refreshed)
        assert [record for record in farm.stale_imports()
                if record["imported"] == b_name] == []
        attrs, _ = farm.read(a_name, "attributes", type="Part")
        assert attrs == [["cost", "float"], ["weight", "float"]]

    def test_same_shard_import_skips_the_exchange(self, farm):
        shard0 = names_for_shards(farm.router, prefix="Local")[0]
        other = None
        index = 0
        while other is None:
            candidate = f"LocalPeer{index}"
            if farm.shard_of(candidate) == farm.shard_of(shard0) \
                    and candidate != shard0:
                other = candidate
            index += 1
        farm.define(tenant_source(shard0))
        farm.define(tenant_source(other))
        result = farm.import_schema(shard0, other)
        assert not result["cross_shard"]

    def test_every_shard_stays_consistent(self, farm):
        assert all(violations == [] for violations
                   in farm.check_all().values())


class TestLifecycle:
    def test_reopen_with_wrong_shard_count_is_rejected(self, tmp_path):
        root = str(tmp_path / "farm")
        SchemaFarm.open(root, shards=2).close()
        with pytest.raises(FarmError, match="resharding"):
            SchemaFarm.open(root, shards=3)

    def test_clean_reopen_preserves_digests(self, tmp_path):
        root = str(tmp_path / "farm")
        farm = SchemaFarm.open(root, shards=2)
        for name in names_for_shards(farm.router):
            farm.define(tenant_source(name))
        digests = farm.digests()
        farm.close()
        reopened = SchemaFarm.open(root)
        try:
            assert reopened.shards == 2
            assert reopened.digests() == digests
        finally:
            reopened.close()

    def test_shard_epoch_counts_commits_across_reopen(self, tmp_path):
        root = str(tmp_path / "farm")
        farm = SchemaFarm.open(root, shards=1)
        try:
            farm.define(tenant_source("EpochA"))
            with pytest.raises(FarmError):
                farm.define("schema Broken is nonsense")
            farm.define(tenant_source("EpochB"))
            assert farm.epochs[0] == 2
        finally:
            farm.close()
        reopened = SchemaFarm.open(root)
        try:
            assert reopened.epochs[0] == 2          # the ready reply
            assert reopened.read("EpochA", "schema_id")[1] == 2
            assert reopened.recovery_reports()[0]["sessions_replayed"] == 2
        finally:
            reopened.close()

    def test_requests_after_close_raise(self, tmp_path):
        farm = SchemaFarm.open(str(tmp_path / "farm"), shards=2)
        farm.close()
        with pytest.raises(FarmError, match="closed"):
            farm.read("Anything", "schema_id")


class TestEpochTokens:
    def test_a_shard_token_never_goes_backwards(self):
        """Two pool threads on one shard: the first reply (epoch 5) is
        folded into the token only after the second (epoch 6) when the
        token is written outside the shard's lock; inside it, never."""
        first_writing, second_done = threading.Event(), threading.Event()

        class OneShard:
            lock = threading.Lock()
            replies = iter([5, 6])

            def request(self, message, timeout=None):
                return {"ok": True, "epoch": next(self.replies)}

        shard = OneShard()

        class Tokens(dict):
            def __setitem__(self, index, epoch):
                if epoch == 5:
                    first_writing.set()
                    if not shard.lock.locked():  # the lock is already free:
                        assert second_done.wait(30)  # the second overtakes
                super().__setitem__(index, epoch)

        farm = object.__new__(SchemaFarm)
        farm._closed, farm._clients, farm.epochs = False, [shard], Tokens()

        def second():
            assert first_writing.wait(30)
            farm.request(0, {"kind": "ping"})
            second_done.set()

        threads = [threading.Thread(target=farm.request,
                                    args=(0, {"kind": "ping"})),
                   threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        assert farm.epochs == {0: 6}
