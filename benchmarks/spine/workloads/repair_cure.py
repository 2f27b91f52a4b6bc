"""repair_cure — sessions that go wrong, through the §3.5 protocol.

Each op is ``manager.evolve(changes, chooser)``: one harmless primitive
plus one seeded violation, cycling the five schema inconsistencies of
the constraint catalogue and ``add_attribute`` on an instantiated type
(constraint (*), cured alternately by the eager ``conversions.add_slot``
and the lazy ``migrations.add_slot``); every eighth op is rolled back.
Repair generation, DRed churn on the subtype cycle, rollback and the
runtime cures carry the op; the parser and the clean-commit path carry
none of it.
"""

import random
import time

from repro.control.protocol import ROLLBACK, always_rollback
from repro.datalog.terms import Atom
from repro.errors import ReproError
from repro.gom.builtins import builtin_type
from repro.workloads.synthetic import seeded_violation

from workloads.common import (
    ManagerWorkload,
    evolution_draw,
    pick,
    seeded_plan,
    sized,
)

KINDS = ("dangling_domain", "missing_code", "bad_refinement",
         "subtype_cycle", "duplicate_type_name", "slot")
ROLLBACK_EVERY = 8
BUILTIN_VALUES = {"int": 1, "float": 1.0, "string": "s"}


class RepairCure(ManagerWorkload):
    name = "repair_cure"
    BASE_OPS = 950
    #: Warm-up ops run in set-up (their indices stay clear of the plan's).
    WARM_OPS = 40
    WARM_FIRST = 1_000_000

    @staticmethod
    def plan(seed, count, scale, first=0):
        """Op = (index, violation kind, rolled back?, (base primitive,
        three target picks), name seed); the seed moves payloads only
        between ops of one kind and outcome."""
        master = random.Random(f"repair_cure:{first}")
        canonical = [(first + i, KINDS[i % len(KINDS)],
                      i % ROLLBACK_EVERY == ROLLBACK_EVERY - 1,
                      (evolution_draw(master), master.random(),
                       master.random(), master.random()))
                     for i in range(count)]
        return seeded_plan(f"repair_cure:{first}", seed, canonical,
                           group=lambda op: op[1:3])

    def __init__(self, directory, seed, scale, spans, traced=False):
        super().__init__(directory, seed, scale, spans, traced)
        manager = self.open_manager()
        if spans.enabled:
            self.instrument_sessions()
        self.schema = self.base_schema()
        self.instantiated = self.populate()
        self.eager_next = True
        #: The subtype edge the last cured cycle left behind, and the
        #: two edges of the cycle the current op seeds.
        self.leftover = []
        self.cycle = []
        for op in self.plan(seed, sized(self.WARM_OPS, scale, 6), scale,
                            first=self.WARM_FIRST):
            self.run(op)
        if not manager.check().consistent:
            raise RuntimeError("repair_cure: inconsistent after set-up")

    def instrument_sessions(self):
        """manager.evolve() opens, commits and rolls back the session
        itself; time those calls where it makes them."""
        manager, spans = self.manager, self.spans
        begin = manager.begin_session

        def begin_session(*args, **kwargs):
            with spans.span("control.begin"):
                session = begin(*args, **kwargs)
            spans.wrap(session, "commit", "control.commit")
            spans.wrap(session, "rollback", "control.rollback")
            self.counts["lock_wait_s"] += session.lock_wait_seconds
            return session

        manager.begin_session = begin_session

    def populate(self):
        """Objects on the first base types whose attributes (inherited
        too) are all built-in sorts, so values need no other objects."""
        manager, model = self.manager, self.manager.model
        wanted = sized(20, self.scale, 4)
        per_type = sized(100, self.scale, 5)
        chosen = []
        for tid in self.schema.type_ids:
            attrs = model.attributes(tid, inherited=True)
            if attrs and all(domain.is_builtin for _name, domain in attrs):
                chosen.append((tid, attrs))
                if len(chosen) == wanted:
                    break
        session = manager.begin_session()
        started = time.perf_counter()
        self.objects = []
        for tid, attrs in chosen:
            values = {name: BUILTIN_VALUES[model.type_name(domain)]
                      for name, domain in attrs}
            self.objects.extend(
                manager.runtime.create_object(tid, values, session=session)
                for _ in range(per_type))
        self.counts["create_s"] = time.perf_counter() - started
        self.counts["created"] = len(self.objects)
        session.commit()
        # The harmless primitive and the seeded schema violations stay
        # off the instantiated types and their supertypes, so only the
        # "slot" kind raises constraint (*).
        instantiated = [tid for tid, _attrs in chosen]
        touchy = set(instantiated)
        for tid in instantiated:
            touchy.update(model.supertypes(tid, transitive=True))
        self.plain_types = [tid for tid in self.base_types
                            if tid not in touchy]
        return instantiated

    # -- one op ----------------------------------------------------------------

    def changes(self, index, kind, payload, rng):
        draw, first, second, third = payload
        plain = self.plain_types

        def apply(session):
            with self.spans.span("analyzer.primitives"):
                self.evolve_base(session, rng, draw, types=plain)
                if kind == "slot":
                    self.manager.analyzer.primitives(session).add_attribute(
                        pick(self.instantiated, first), f"slot{index}",
                        builtin_type("int"))
                    return
                target = pick(plain, first)
                other = pick(plain, second)
                if other == target:     # a cycle needs two types
                    other = plain[(plain.index(target) + 1) % len(plain)]
                if kind == "subtype_cycle":
                    # A cure cuts one edge of the cycle and commits the
                    # other.  Retract the previous one first, so cycles
                    # always meet the base hierarchy, not each other's
                    # residue, whatever order the seed put them in.
                    prims = self.manager.analyzer.primitives(session)
                    for edge in self.leftover:
                        prims.remove_supertype(*edge)
                    self.cycle = [(target, other), (other, target)]
                seeded_violation(
                    self.only(target, other, decl_ids=[
                        pick(self.schema.decl_ids, third)]),
                    session, rng, kind)
        return apply

    def chooser(self, violation, repairs):
        """Cure, never ask: constraint (*) by converting the instances,
        anything else by the first repair needing no user input that
        only retracts what this session added (else the first such)."""
        session = self.manager.model.active_session
        if violation.constraint.name == "slot_exists":
            self.convert(session, violation)
            wanted = "validate-conclusion"
        else:
            wanted = "invalidate-premise"
        added = set(session.net_delta()[0])
        usable = [(index, explained.repair)
                  for index, explained in enumerate(repairs)
                  if not explained.repair.requires_user_input()]
        for index, repair in usable:
            if repair.kind == wanted and (
                    wanted == "validate-conclusion"
                    or all(action.fact in added
                           for action in repair.edb_actions)):
                return index
        return usable[0][0] if usable else ROLLBACK

    def convert(self, session, violation):
        """The object half of the (*) cure, eager and lazy in turn; both
        also insert the Slot fact the chosen repair then finds present."""
        bound = {var.name: value for var, value in violation.theta}
        tid, attr = bound["T"], bound["A"]
        manager = self.manager
        if self.eager_next:
            with self.spans.span("runtime.eager_cure"):
                manager.conversions.add_slot(tid, attr, 0, session=session)
        else:
            with self.spans.span("runtime.lazy_cure"):
                manager.migrations.add_slot(tid, attr, 0, session=session)
        self.eager_next = not self.eager_next

    def population(self):
        return (self.manager.runtime.count_objects(),
                sum(len(obj.slots) for obj in self.objects),
                sum(obj.schema_version for obj in self.objects))

    def run(self, op):
        index, kind, rolled_back, payload, name_seed = op
        manager = self.manager
        rng = random.Random(name_seed)
        if rolled_back:
            edb_before = manager.model.db.edb.snapshot_codes()
            population_before = self.population()
        with self.clock as clock:
            try:
                with self.spans.span("control.protocol"):
                    result = manager.evolve(
                        self.changes(index, kind, payload, rng),
                        chooser=always_rollback if rolled_back
                        else self.chooser)
            except ReproError:
                result = None
        self.session_seconds.append(clock.seconds)
        if result is None or result.outcome == "gave-up":
            # Refused, or out of cure rounds with the session still open.
            active = manager.model.active_session
            if active is not None and active.active:
                active.rollback()
            return clock.seconds, False
        if kind == "subtype_cycle" and result.succeeded:
            self.leftover = [
                edge for edge in self.cycle
                if manager.model.db.contains(Atom("SubTypRel", edge))]
        if self.traced:
            self.counts["rollbacks" if rolled_back else "commits"] += 1
            self.absorb_session_stats()
        if rolled_back:
            # Rollback leaves no residue: the EDB (interned row sets,
            # compared exactly) and the object population are as at BES.
            ok = (result.outcome == "rolled-back"
                  and manager.model.db.edb.snapshot_codes() == edb_before
                  and self.population() == population_before)
        else:
            ok = (result.outcome == "repaired"
                  and result.final_report.consistent)
        return clock.seconds, ok
