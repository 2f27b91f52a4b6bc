"""Pin DRed maintenance churn on subtype-cycle add / rollback.

ROADMAP item 3: deleting an edge that participated in a subtype cycle
makes DRed over-delete the whole ``SubTypRel_t`` closure and re-derive
most of it — ~O(n²) work on an n-type chain.  The evolution fuzzer's
hostile ``h_subtype_cycle`` production hits this path constantly, so
the cost is pinned here with explicit ceilings (measured values plus
~50% headroom).  An optimization may lower them; a regression that
blows the quadratic up further must fail loudly.  Churn must also leave
no residue in the provenance reverse maps: a key whose fact set
emptied is deleted, not kept as an empty set.
"""

from repro.analyzer.operators import delete_type_cascade
from repro.manager import SchemaManager

CHAIN = 16

# Measured on the current engine (maint_deleted / maint_rederived):
#   add cycle edge:  16 /   0     (linear: one over-delete per type)
#   rollback:       273 / 120     (quadratic: closure churn)
# and the work the rollback's DRed does for them (index_lookups /
# plan() lookups, i.e. plan_cache_hits + plans_compiled): 1,825 / 152.
ADD_DELETED_MAX = 24
ADD_REDERIVED_MAX = 8
ROLLBACK_DELETED_MAX = 410
ROLLBACK_REDERIVED_MAX = 180
ROLLBACK_INDEX_LOOKUPS_MAX = 2700
ROLLBACK_PLAN_LOOKUPS_MAX = 230


def _chain_manager():
    manager = SchemaManager()
    session = manager.begin_session()
    prims = manager.analyzer.primitives(session)
    sid = prims.add_schema("Churn")
    tids, prev = [], None
    for index in range(CHAIN):
        tid = prims.add_type(sid, f"C{index}",
                             supertypes=(prev,) if prev else ())
        tids.append(tid)
        prev = tid
    session.commit()
    return manager, tids


def test_cycle_add_and_rollback_churn_stays_bounded():
    manager, tids = _chain_manager()
    session = manager.begin_session()
    prims = manager.analyzer.primitives(session)
    # Close the chain into a cycle: root becomes a subtype of the leaf.
    prims.add_supertype(tids[0], tids[-1])
    report = session.check()
    assert not report.consistent, "a subtype cycle must violate EES"
    stats = session.stats
    assert stats.maint_deleted <= ADD_DELETED_MAX, (
        f"cycle-add over-deletion churn regressed: "
        f"{stats.maint_deleted} > {ADD_DELETED_MAX}")
    assert stats.maint_rederived <= ADD_REDERIVED_MAX, (
        f"cycle-add re-derivation churn regressed: "
        f"{stats.maint_rederived} > {ADD_REDERIVED_MAX}")

    session.rollback()
    stats = manager.last_session_stats()
    assert stats.maint_deleted <= ROLLBACK_DELETED_MAX, (
        f"cycle-rollback over-deletion churn regressed: "
        f"{stats.maint_deleted} > {ROLLBACK_DELETED_MAX}")
    assert stats.maint_rederived <= ROLLBACK_REDERIVED_MAX, (
        f"cycle-rollback re-derivation churn regressed: "
        f"{stats.maint_rederived} > {ROLLBACK_REDERIVED_MAX}")
    assert stats.index_lookups <= ROLLBACK_INDEX_LOOKUPS_MAX, (
        f"cycle-rollback DRed index work regressed: "
        f"{stats.index_lookups} > {ROLLBACK_INDEX_LOOKUPS_MAX}")
    plan_lookups = stats.plan_cache_hits + stats.plans_compiled
    assert plan_lookups <= ROLLBACK_PLAN_LOOKUPS_MAX, (
        f"cycle-rollback plan lookups regressed: "
        f"{plan_lookups} > {ROLLBACK_PLAN_LOOKUPS_MAX}")


MODULE = """
schema Mod{n} is
type Part{n} is [ width{n} : float; ]
operations
  declare scale : float -> float;
implementation
  define scale(factor) is
  begin
    return self.width{n} * factor;
  end scale;
end type Part{n};
type Fitted{n} supertype Part{n} is [ extra{n} : float; ]
refine
  declare scale : float -> float;
implementation
  define scale(factor) is
  begin
    return super.scale(factor) + self.extra{n};
  end scale;
end type Fitted{n};
end schema Mod{n};
"""


def test_define_and_retire_leaves_no_empty_provenance_keys():
    manager, tids = _chain_manager()
    for n in range(6):
        manager.define(MODULE.format(n=n))
        session = manager.begin_session()
        prims = manager.analyzer.primitives(session)
        sid = manager.model.schema_id(f"Mod{n}")
        # The module's one refinement edge is the only one in the base.
        for fact in list(manager.model.db.facts("DeclRefinement")):
            session.remove(fact)
        for name in (f"Fitted{n}", f"Part{n}"):
            delete_type_cascade(prims, manager.model.type_id(name, sid))
        prims.delete_schema(sid)
        session.commit()
    session = manager.begin_session()
    manager.analyzer.primitives(session).add_supertype(tids[0], tids[-1])
    session.rollback()
    provenance = manager.model.db.provenance
    for reverse in (provenance._by_support, provenance._by_negative,
                    provenance._by_pred):
        assert reverse, "the churn must exercise every reverse map"
        empty = [key for key, facts in reverse.items() if not facts]
        assert empty == []


def test_rollback_leaves_no_residue():
    manager, tids = _chain_manager()
    from repro.datalog.facts import edb_digest
    before = edb_digest(manager.model.db)
    session = manager.begin_session()
    prims = manager.analyzer.primitives(session)
    prims.add_supertype(tids[0], tids[-1])
    session.rollback()
    assert edb_digest(manager.model.db) == before
    assert manager.check().consistent
