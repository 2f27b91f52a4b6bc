"""Snapshot-exchange excerpts, single-process differential.

Everything here runs without worker processes: the home and importer
databases are two in-process managers, and the oracle is a third
manager holding both schemas natively — after exchange, name-level
visibility on the importer must match the oracle exactly.
"""

import pytest

from repro.analyzer.namespaces import (
    public_closure,
    visible_components,
)
from repro.datalog.terms import Atom
from repro.farm import FARM_FEATURES
from repro.farm.excerpt import (
    install_foreign_schema,
    plan_foreign_install,
    schema_excerpt,
)
from repro.gom.builtins import builtin_type
from repro.gom.persistence import decode_atom
from repro.manager import SchemaManager

HOME_SOURCE = """
schema Home is
public Part;
interface
  type Part is
    [ weight : float; ]
  end type Part;
implementation
  type Secret is
    [ code : int; ]
  end type Secret;
end schema Home;
"""

AWAY_SOURCE = """
schema Away is
type Widget is [ label : string; ] end type Widget;
end schema Away;
"""


def fresh(source=None, stride=0):
    """A manager on its own id stride, like a shard worker
    (overlapping id numbers across databases would collide exactly the
    way the farm's per-shard strides exist to prevent)."""
    from repro.farm import ID_STRIDE
    from repro.gom.ids import KINDS
    manager = SchemaManager(features=FARM_FEATURES)
    for kind in KINDS:
        manager.model.ids.resume(kind, stride * ID_STRIDE + 1)
    if source:
        manager.define(source)
    return manager


def foreign_schemas(manager):
    """The installed ``ForeignSchema(sid, home shard, home epoch)`` rows."""
    return [fact.args for fact in manager.model.db.facts("ForeignSchema")]


def name_level_visibility(manager, schema_name):
    """(kind, visible, origin-schema-name, original) rows at a schema."""
    from repro.analyzer.namespaces import model_schema_name
    sid = manager.model.schema_id(schema_name)
    rows = []
    for kind in ("type", "var", "schema"):
        for visible, origin, original in visible_components(
                manager.model, sid, kind):
            rows.append((kind, visible,
                         model_schema_name(manager.model, origin),
                         original))
    return sorted(rows)


class TestWireForms:
    def test_wire_form_is_json_clean(self):
        import json
        home = fresh(HOME_SOURCE)
        sid = home.model.schema_id("Home")
        payload = json.loads(json.dumps(schema_excerpt(home.model, sid)))
        assert [decode_atom(row) for row in payload] == \
            public_closure(home.model, sid)


class TestForeignInstall:
    def _exchange(self, home, away):
        sid = home.model.schema_id("Home")
        atoms = public_closure(home.model, sid)
        install_foreign_schema(away, sid, atoms, home_shard=1,
                               home_epoch=home.model.epoch)
        return sid

    def test_importer_matches_the_single_process_oracle(self):
        home, away = fresh(HOME_SOURCE, stride=1), fresh(AWAY_SOURCE)
        sid = self._exchange(home, away)
        session = away.begin_session()
        prims = away.analyzer.primitives(session)
        prims.add_import(away.model.schema_id("Away"), sid)
        session.commit()

        oracle = fresh(HOME_SOURCE + AWAY_SOURCE)
        osession = oracle.begin_session()
        oprims = oracle.analyzer.primitives(osession)
        oprims.add_import(oracle.model.schema_id("Away"),
                          oracle.model.schema_id("Home"))
        osession.commit()

        assert name_level_visibility(away, "Away") == \
            name_level_visibility(oracle, "Away")
        assert away.check().consistent

    def test_provenance_fact_records_the_home_epoch(self):
        home, away = fresh(HOME_SOURCE, stride=1), fresh(AWAY_SOURCE)
        sid = self._exchange(home, away)
        assert foreign_schemas(away) == \
            [(sid, 1, home.model.epoch)]

    def test_implementation_types_stay_home(self):
        home, away = fresh(HOME_SOURCE, stride=1), fresh(AWAY_SOURCE)
        self._exchange(home, away)
        type_names = {fact.args[1] for fact
                      in away.model.db.matching(
                          Atom("Type", (None, None, None)))}
        assert "Part" in type_names
        assert "Secret" not in type_names

    def test_refresh_drops_stale_facts_and_adds_new_ones(self):
        home, away = fresh(HOME_SOURCE, stride=1), fresh(AWAY_SOURCE)
        sid = self._exchange(home, away)

        def evolve_home(session):
            prims = home.analyzer.primitives(session)
            part = home.model.type_id("Part", sid)
            prims.add_attribute(part, "cost", builtin_type("float"))
            prims.delete_attribute(part, "weight")
        assert home.evolve(evolve_home).succeeded

        self._exchange(home, away)  # second exchange = refresh
        part = away.model.type_id("Part", sid)
        assert sorted(name for name, _ in away.model.attributes(part)) \
            == ["cost"]
        assert foreign_schemas(away) == \
            [(sid, 1, home.model.epoch)]
        assert away.check().consistent

    def test_refresh_plan_protects_other_foreign_closures(self):
        other_source = """
        schema Other is
        public Gear;
        interface
          type Gear is [ teeth : int; ] end type Gear;
        end schema Other;
        """
        home = fresh(HOME_SOURCE, stride=1)
        other = fresh(other_source, stride=2)
        away = fresh(AWAY_SOURCE)
        home_sid = self._exchange(home, away)
        other_sid = other.model.schema_id("Other")
        install_foreign_schema(
            away, other_sid,
            public_closure(other.model, other_sid),
            home_shard=2, home_epoch=other.model.epoch)

        # Re-planning Home's refresh must never delete Other's facts.
        plan = plan_foreign_install(
            away.model, home_sid,
            public_closure(home.model, home_sid),
            home_shard=1, home_epoch=home.model.epoch + 1)
        other_closure = set(public_closure(away.model, other_sid))
        assert not other_closure & set(plan.deletions)

    def test_unchanged_refresh_is_a_near_noop(self):
        home, away = fresh(HOME_SOURCE, stride=1), fresh(AWAY_SOURCE)
        sid = self._exchange(home, away)
        plan = plan_foreign_install(
            away.model, sid, public_closure(home.model, sid),
            home_shard=1, home_epoch=home.model.epoch)
        # Same closure, same epoch: nothing to add or delete.
        assert plan.additions == []
        assert plan.deletions == []

    def test_failed_install_rolls_back(self):
        home = fresh("""
        schema Home is
        public Part;
        interface
          type Part is
            [ weight : float; ]
          operations
            declare scale : float -> Part;
          implementation
            define scale(factor) is
            begin
              return self;
            end scale;
          end type Part;
        end schema Home;
        """, stride=1)
        away = fresh(AWAY_SOURCE)
        sid = home.model.schema_id("Home")
        atoms = public_closure(home.model, sid)
        # Sabotage: strip the Code facts so decl_has_code must fire.
        broken = [fact for fact in atoms if fact.pred != "Code"]
        if broken == atoms:
            pytest.skip("closure carries no Code facts to strip")
        epoch_before = away.model.epoch
        with pytest.raises(Exception):
            install_foreign_schema(away, sid, broken, home_shard=1,
                                   home_epoch=home.model.epoch)
        assert away.model.epoch == epoch_before
        assert foreign_schemas(away) == []
        assert away.check().consistent
