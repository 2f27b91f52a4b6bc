"""evolve_session — the north-star path in one process.

Each op is one evolution session: BES, parse and translate a two-type
DDL module (attributes, operations with code bodies, one ``refine`` with
a ``super.`` call), two ``random_evolution`` primitives on the base,
retire the module defined WINDOW sessions earlier, commit (delta check,
WAL fsync, snapshot publish).  Inserts and deletes at constant module
count make Datalog maintenance and the delta check the bulk of the op;
runtime, service, farm and replication do nothing.
"""

import random

from repro.analyzer.operators import delete_type_cascade
from repro.analyzer.parser import parse_source
from repro.analyzer.translator import Translator
from repro.datalog.terms import Atom
from repro.errors import ReproError

from workloads.common import (
    ManagerWorkload,
    evolution_draw,
    seeded_plan,
    sized,
)


def module_source(index):
    """A two-type module; only *index* varies, so DDL size is seed-free."""
    n = index
    return f"""
schema Mod{n} is
type Part{n} is
  [ width{n} : float;
    count{n} : int;
    tag{n}   : string; ]
operations
  declare scale : float -> float;
  declare bump : int -> int;
implementation
  define scale(factor) is
  begin
    return self.width{n} * factor;
  end scale;
  define bump(step) is
  begin
    self.count{n} := self.count{n} + step;
    return self.count{n};
  end bump;
end type Part{n};
type Fitted{n} supertype Part{n} is
  [ extra{n} : float; ]
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


class EvolveSession(ManagerWorkload):
    name = "evolve_session"
    BASE_OPS = 300

    @staticmethod
    def window(scale):
        return sized(50, scale, 3)

    @classmethod
    def plan(cls, seed, count, scale, first=None):
        """Op = (module index, its two base primitives, name seed); module
        indices continue after the warm-up sessions of set-up."""
        first = cls.window(scale) if first is None else first
        master = random.Random(f"evolve_session:{first}")
        return seeded_plan(f"evolve_session:{first}", seed, [
            (first + i, (evolution_draw(master), evolution_draw(master)))
            for i in range(count)])

    def __init__(self, directory, seed, scale, spans, traced=False):
        super().__init__(directory, seed, scale, spans, traced)
        manager = self.open_manager()
        manager.model.enable_snapshots()
        self.schema = self.base_schema()
        self.modules = []   # TranslationResults still defined, oldest first
        self.modules_cap = self.window(scale)
        for op in self.plan(seed, self.window(scale), scale, first=0):
            self.session(*op)
        if not manager.check().consistent:
            raise RuntimeError("evolve_session: inconsistent after set-up")

    def session(self, index, draws, name_seed):
        manager, spans = self.manager, self.spans
        rng = random.Random(name_seed)
        source = module_source(index)
        session = self.begin()
        try:
            with spans.span("analyzer.parse"):
                unit = parse_source(source)
            with spans.span("analyzer.translate"):
                module = Translator(manager.model, session
                                    ).translate_unit(unit)
            with spans.span("analyzer.primitives"):
                for draw in draws:
                    self.evolve_base(session, rng, draw)
            self.modules.append(module)
            if len(self.modules) > self.modules_cap:
                with spans.span("analyzer.operator"):
                    self.retire(session, self.modules.pop(0))
            with spans.span("control.commit"):
                report = session.commit()
        except ReproError:
            if session.active:
                session.rollback()
            return False
        if self.traced:
            self.counts["ddl_bytes"] += len(source)
            self.counts["commits"] += 1
            self.absorb_session_stats()
        return report.consistent

    def retire(self, session, module):
        """Delete a module whole: both types with everything hanging off
        them, the refinement edges delete_operation leaves, the schema."""
        manager = self.manager
        prims = manager.analyzer.primitives(session)
        (schema_name, sid), = module.schema_ids.items()
        for did in module.decl_ids.values():
            for fact in list(manager.model.db.matching(
                    Atom("DeclRefinement", (did, None)))):
                session.remove(fact)
        for tid in reversed(list(module.type_ids.values())):
            delete_type_cascade(prims, tid)
        prims.delete_schema(sid)

    def run(self, op):
        with self.clock as clock:
            ok = self.session(*op)
        self.session_seconds.append(clock.seconds)
        return clock.seconds, ok
