"""Query planning and execution for the deductive core.

The paper's efficiency claim — consistency checking at EES is cheap
because the Consistency Control is a deductive database — lives or dies
on join evaluation.  This module compiles a conjunctive body (a
``BodyElement`` sequence: positive/negated literals plus builtin
comparisons) into a :class:`JoinPlan`:

* literals are **greedily reordered** by estimated cost — relation
  cardinality discounted per bound argument position — so selective,
  index-supported literals run first;
* negated literals and comparisons are scheduled **as early as their
  bindings allow**, pruning intermediate tuples at the first possible
  moment;
* execution is **slot-based**: variables compile to integer registers,
  each join step drives a :class:`~repro.datalog.facts.Relation` index
  lookup directly at the row level — no per-candidate ``Atom`` building,
  substitution application, or ``match`` dictionary copying.

:class:`QueryPlanner` memoizes plans in a cache shared by the rule
engine, the constraint checker (full and delta-seeded premise
evaluation, conclusion probes), and the repair generator; the cache key
includes a coarse cardinality signature so plans adapt as extensions
grow, and the cache is invalidated on rule or constraint changes.

:class:`EngineStats` is the lightweight instrumentation context created
at BES and threaded through sessions: facts scanned, index hits, join
tuples produced, plans compiled/cached, and per-constraint check time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import PlanningError
from repro.datalog.builtins import Comparison, compare_values
from repro.datalog.terms import (
    Atom,
    Literal,
    Substitution,
    Variable,
    substitute_term,
)

#: Sentinel marking an unbound register during plan execution.
UNBOUND = object()

#: Per bound argument position, how much of a relation the index lookup
#: is assumed to retain (an order-of-magnitude selectivity guess — the
#: classic textbook 1/10 per equality-bound column).
_BOUND_SELECTIVITY = 0.1


@dataclass
class EngineStats:
    """Counters for what one evaluation context (e.g. a BES…EES session)
    actually cost.  Created at BES, stamped at session end, surfaced via
    ``SchemaManager.last_session_stats()``."""

    facts_scanned: int = 0
    index_lookups: int = 0
    index_intersections: int = 0
    join_tuples: int = 0
    negation_checks: int = 0
    comparisons_evaluated: int = 0
    plans_compiled: int = 0
    plan_cache_hits: int = 0
    #: Cached join plans lowered to specialized closures by the compiled
    #: executor (:mod:`repro.datalog.compiled`), once per plan, on its
    #: first execution.
    compiled_plans: int = 0
    #: Fact-insertion constants that were already interned — the symbol
    #: table's hit count at the store boundary.
    intern_hits: int = 0
    checks_run: int = 0
    constraints_checked: int = 0
    violations_found: int = 0
    # Incremental view maintenance (engine maintenance="delta"): the
    # semi-naive insert rounds run, facts DRed over-deleted and those of
    # them that end their stratum present again, and total time spent
    # propagating deltas in place.
    maint_insert_rounds: int = 0
    maint_deleted: int = 0
    maint_rederived: int = 0
    maint_ms: float = 0.0
    #: Times an incremental check had no exact derived delta and fell
    #: back to the conservative slow path — a delta-maintained session
    #: keeps this at zero.
    delta_fallbacks: int = 0
    #: Snapshot copy-on-write: relations detached from a published view
    #: (pointer copies) and index buckets copied on their first write.
    cow_relations: int = 0
    cow_buckets_copied: int = 0
    # Durability counters (threaded in by repro.storage when the model
    # is backed by an evolution log).
    wal_records: int = 0
    wal_bytes: int = 0
    wal_fsyncs: int = 0
    replay_sessions: int = 0
    replay_records: int = 0
    replay_seconds: float = 0.0
    constraint_seconds: Dict[str, float] = field(default_factory=dict)
    started_at: float = field(default_factory=time.perf_counter)
    finished_at: Optional[float] = None

    def record_constraint(self, name: str, seconds: float) -> None:
        """Accumulate check time for one constraint."""
        self.constraint_seconds[name] = (
            self.constraint_seconds.get(name, 0.0) + seconds
        )

    def finish(self) -> "EngineStats":
        """Stamp the end of the instrumented window (idempotent)."""
        if self.finished_at is None:
            self.finished_at = time.perf_counter()
        return self

    @property
    def elapsed_seconds(self) -> float:
        end = self.finished_at if self.finished_at is not None \
            else time.perf_counter()
        return end - self.started_at

    @property
    def plan_cache_hit_rate(self) -> float:
        total = self.plans_compiled + self.plan_cache_hits
        return self.plan_cache_hits / total if total else 0.0

    def slowest_constraints(self, limit: int = 5
                            ) -> List[Tuple[str, float]]:
        """The *limit* most expensive constraints, (name, seconds)."""
        ranked = sorted(self.constraint_seconds.items(),
                        key=lambda item: (-item[1], item[0]))
        return ranked[:limit]

    def as_dict(self) -> Dict[str, object]:
        """A JSON-friendly snapshot (used by the benchmark reports)."""
        return {
            "facts_scanned": self.facts_scanned,
            "index_lookups": self.index_lookups,
            "index_intersections": self.index_intersections,
            "join_tuples": self.join_tuples,
            "negation_checks": self.negation_checks,
            "comparisons_evaluated": self.comparisons_evaluated,
            "plans_compiled": self.plans_compiled,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_hit_rate": round(self.plan_cache_hit_rate, 4),
            "compiled_plans": self.compiled_plans,
            "intern_hits": self.intern_hits,
            "checks_run": self.checks_run,
            "constraints_checked": self.constraints_checked,
            "violations_found": self.violations_found,
            "maint_insert_rounds": self.maint_insert_rounds,
            "maint_deleted": self.maint_deleted,
            "maint_rederived": self.maint_rederived,
            "maint_ms": self.maint_ms,
            "delta_fallbacks": self.delta_fallbacks,
            "cow_relations": self.cow_relations,
            "cow_buckets_copied": self.cow_buckets_copied,
            "wal_records": self.wal_records,
            "wal_bytes": self.wal_bytes,
            "wal_fsyncs": self.wal_fsyncs,
            "replay_sessions": self.replay_sessions,
            "replay_records": self.replay_records,
            "replay_seconds": self.replay_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "constraint_seconds": dict(self.constraint_seconds),
        }

    def describe(self) -> str:
        """A one-paragraph summary of what the session's checks cost."""
        lines = [
            f"engine statistics ({self.elapsed_seconds * 1000:.2f} ms)",
            f"  facts scanned:      {self.facts_scanned}",
            f"  index lookups:      {self.index_lookups} "
            f"({self.index_intersections} multi-column intersections)",
            f"  join tuples:        {self.join_tuples}",
            f"  negation checks:    {self.negation_checks}",
            f"  comparisons:        {self.comparisons_evaluated}",
            f"  plans compiled:     {self.plans_compiled} "
            f"(cache hits {self.plan_cache_hits}, "
            f"hit rate {self.plan_cache_hit_rate:.0%})",
            f"  compiled closures:  {self.compiled_plans} "
            f"({self.intern_hits} intern hits)",
            f"  checks run:         {self.checks_run} "
            f"({self.constraints_checked} constraint evaluations, "
            f"{self.violations_found} violations)",
        ]
        if self.maint_insert_rounds or self.maint_deleted:
            lines.append(f"  view maintenance:   "
                         f"{self.maint_insert_rounds} insert round(s), "
                         f"{self.maint_deleted} over-deleted / "
                         f"{self.maint_rederived} re-derived, "
                         f"{self.maint_ms:.2f} ms")
        if self.delta_fallbacks:
            lines.append(f"  delta fallbacks:    {self.delta_fallbacks} "
                         f"(conservative re-check without derived delta)")
        if self.cow_relations:
            lines.append(f"  snapshot CoW:       {self.cow_relations} "
                         f"relation(s) detached, "
                         f"{self.cow_buckets_copied} bucket(s) copied")
        if self.wal_records or self.wal_fsyncs:
            lines.append(f"  evolution log:      {self.wal_records} "
                         f"record(s), {self.wal_bytes} bytes, "
                         f"{self.wal_fsyncs} fsync(s)")
        if self.replay_sessions or self.replay_records:
            lines.append(f"  recovery replay:    {self.replay_sessions} "
                         f"session(s), {self.replay_records} record(s) in "
                         f"{self.replay_seconds * 1000:.2f} ms")
        slowest = self.slowest_constraints(3)
        if slowest:
            worst = ", ".join(f"{name} {seconds * 1000:.2f} ms"
                              for name, seconds in slowest)
            lines.append(f"  slowest constraints: {worst}")
        return "\n".join(lines)


# -- compiled step representation ------------------------------------------

_SCAN, _NEG, _CMP, _BIND = 0, 1, 2, 3


class _Step:
    """One compiled join step.  A plain struct; ``kind`` selects the
    executor branch."""

    __slots__ = ("kind", "pred", "arity", "fixed", "bound", "outs",
                 "args", "op", "slot", "source", "body_index")

    def __init__(self, kind: int, body_index: int) -> None:
        self.kind = kind
        self.body_index = body_index
        self.pred = ""
        self.arity = 0
        self.fixed: Tuple[Tuple[int, object], ...] = ()
        self.bound: Tuple[Tuple[int, int], ...] = ()
        self.outs: Tuple[Tuple[int, int], ...] = ()
        self.args: Tuple[Tuple[bool, object], ...] = ()
        self.op = ""
        self.slot = -1
        self.source: Tuple[bool, object] = (False, None)


def _resolve_bound_vars(theta: Optional[Substitution],
                        body: Sequence[object]) -> FrozenSet[Variable]:
    """The body variables *theta* grounds (following var→var chains)."""
    if not theta:
        return frozenset()
    body_vars: Set[Variable] = set()
    for element in body:
        body_vars.update(element.variables())
    bound: Set[Variable] = set()
    for var in body_vars:
        if var in theta and not isinstance(
                substitute_term(var, theta), Variable):
            bound.add(var)
    return frozenset(bound)


def compile_plan(database, body: Sequence[object],
                 bound_vars: Iterable[Variable] = ()) -> "JoinPlan":
    """Compile *body* into a :class:`JoinPlan` given the variables the
    caller promises to bind before execution.

    Greedy: filters (comparisons, equality bindings, negations) are
    scheduled the moment their variables are bound; among the remaining
    positive literals the one with the lowest estimated cost (relation
    cardinality discounted per bound argument) runs next.
    """
    body = tuple(body)
    var_slots: Dict[Variable, int] = {}

    def slot_of(var: Variable) -> int:
        slot = var_slots.get(var)
        if slot is None:
            slot = len(var_slots)
            var_slots[var] = slot
        return slot

    initial_bound = frozenset(bound_vars)
    for var in sorted(initial_bound, key=lambda v: v.name):
        slot_of(var)

    bound: Set[Variable] = set(initial_bound)
    steps: List[_Step] = []
    pending: List[Tuple[int, object]] = list(enumerate(body))

    def entry(term: object) -> Tuple[bool, object]:
        """(is_slot, slot-or-constant) for a term bound at this point."""
        if isinstance(term, Variable):
            return True, slot_of(term)
        return False, term

    def schedule_filters() -> None:
        """Schedule every comparison / binding / negation that is ready."""
        progress = True
        while progress:
            progress = False
            for item in list(pending):
                index, element = item
                if isinstance(element, Comparison):
                    unbound = [v for v in set(element.variables())
                               if v not in bound]
                    if not unbound:
                        step = _Step(_CMP, index)
                        step.op = element.op
                        step.args = (entry(element.left),
                                     entry(element.right))
                        steps.append(step)
                        pending.remove(item)
                        progress = True
                    elif element.op == "=" and len(unbound) == 1:
                        target = unbound[0]
                        other = (element.right
                                 if element.left is target
                                 or element.left == target
                                 else element.left)
                        if isinstance(other, Variable) \
                                and other not in bound:
                            continue  # both sides unbound: not ready
                        step = _Step(_BIND, index)
                        step.slot = slot_of(target)
                        step.source = entry(other)
                        steps.append(step)
                        pending.remove(item)
                        bound.add(target)
                        progress = True
                elif isinstance(element, Literal) and not element.positive:
                    if all(v in bound for v in element.variables()):
                        step = _Step(_NEG, index)
                        step.pred = element.pred
                        step.args = tuple(entry(a)
                                          for a in element.atom.args)
                        steps.append(step)
                        pending.remove(item)
                        progress = True

    def scan_cost(element: Literal) -> Tuple[float, int, int]:
        cardinality = database.count(element.pred)
        n_bound = sum(
            1 for arg in element.atom.args
            if not isinstance(arg, Variable) or arg in bound
        )
        arity = element.atom.arity
        if n_bound == arity:
            estimate = min(1.0, float(cardinality))
        else:
            estimate = cardinality * (_BOUND_SELECTIVITY ** n_bound)
        return estimate, arity - n_bound, 0

    while pending:
        schedule_filters()
        if not pending:
            break
        candidates = [
            (index, element) for index, element in pending
            if isinstance(element, Literal) and element.positive
        ]
        if not candidates:
            leftover = ", ".join(repr(element)
                                 for _index, element in pending)
            raise PlanningError(
                f"cannot schedule {leftover}: variables can never be "
                f"bound by a positive literal (body is not range "
                f"restricted for the given bindings)"
            )
        best_index, best_literal = min(
            candidates,
            key=lambda item: (scan_cost(item[1])[0],
                              scan_cost(item[1])[1], item[0]),
        )
        pending.remove((best_index, best_literal))
        step = _Step(_SCAN, best_index)
        step.pred = best_literal.pred
        step.arity = best_literal.atom.arity
        fixed: List[Tuple[int, object]] = []
        bound_positions: List[Tuple[int, int]] = []
        outs: List[Tuple[int, int]] = []
        for position, arg in enumerate(best_literal.atom.args):
            if not isinstance(arg, Variable):
                fixed.append((position, arg))
            elif arg in bound:
                bound_positions.append((position, slot_of(arg)))
            else:
                outs.append((position, slot_of(arg)))
        step.fixed = tuple(fixed)
        step.bound = tuple(bound_positions)
        step.outs = tuple(outs)
        steps.append(step)
        bound.update(best_literal.variables())

    return JoinPlan(body=body, steps=tuple(steps), var_slots=var_slots,
                    bound_vars=initial_bound)


class JoinPlan:
    """A compiled evaluation order for one conjunctive body.

    A database whose ``executor`` is ``"compiled"`` runs the plan as a
    closure (:mod:`repro.datalog.compiled`), lowered on first execution.
    ``"interpreted"`` walks the step list with :meth:`_run_supports`,
    the reference implementation the differential oracles compare
    against; no other configuration reaches it.
    """

    __slots__ = ("body", "steps", "var_slots", "bound_vars", "nslots",
                 "_cc")

    def __init__(self, body: Tuple[object, ...], steps: Tuple[_Step, ...],
                 var_slots: Dict[Variable, int],
                 bound_vars: FrozenSet[Variable]) -> None:
        self.body = body
        self.steps = steps
        self.var_slots = var_slots
        self.bound_vars = bound_vars
        self.nslots = len(var_slots)
        #: Lazily-built :class:`repro.datalog.compiled.CompiledPlan`;
        #: lives and dies with the plan, so planner cache invalidation
        #: (rule changes, cardinality growth) discards closures too.
        self._cc = None

    # -- introspection -------------------------------------------------------

    def scheduled_order(self) -> Tuple[int, ...]:
        """Original body indexes in execution order."""
        return tuple(step.body_index for step in self.steps)

    def ordered_body(self) -> Tuple[object, ...]:
        """The body elements in the order the plan evaluates them."""
        return tuple(self.body[index] for index in self.scheduled_order())

    def explain(self) -> str:
        """Render the plan, one step per line, for debugging/teaching."""
        names = {slot: var.name for var, slot in self.var_slots.items()}
        lines = []
        for number, step in enumerate(self.steps):
            element = self.body[step.body_index]
            if step.kind == _SCAN:
                keyed = [f"{names[slot]}@{pos}" for pos, slot in step.bound]
                keyed += [f"={value!r}@{pos}" for pos, value in step.fixed]
                how = f"index[{', '.join(keyed)}]" if keyed else "scan"
                lines.append(f"{number}: {how} {element!r}")
            elif step.kind == _NEG:
                lines.append(f"{number}: absent? {element!r}")
            elif step.kind == _BIND:
                lines.append(f"{number}: bind {element!r}")
            else:
                lines.append(f"{number}: filter {element!r}")
        return "\n".join(lines)

    # -- execution -----------------------------------------------------------

    def _initial_registers(self, theta: Optional[Substitution]
                           ) -> List[object]:
        regs: List[object] = [UNBOUND] * self.nslots
        if theta:
            for var, slot in self.var_slots.items():
                if var in theta:
                    value = substitute_term(var, theta)
                    if not isinstance(value, Variable):
                        regs[slot] = value
        return regs

    def _substitution(self, regs: Sequence[object],
                      base: Optional[Substitution]) -> Substitution:
        result: Substitution = dict(base) if base else {}
        for var, slot in self.var_slots.items():
            value = regs[slot]
            if value is not UNBOUND:
                result[var] = value
        return result

    def substitutions(self, database,
                      theta: Optional[Substitution] = None
                      ) -> Iterator[Substitution]:
        """Yield substitutions satisfying the body (no provenance)."""
        if database.executor == "compiled":
            from repro.datalog.compiled import run_substitutions
            yield from run_substitutions(self, database, theta)
            return
        regs = self._initial_registers(theta)
        for final, _pos, _neg in self._run_supports(database, 0, regs,
                                                    (), ()):
            yield self._substitution(final, theta)

    def probe(self, database,
              theta: Optional[Substitution] = None) -> bool:
        """True when at least one substitution satisfies the body.

        The compiled executor stops at the first row (``limit=1``); the
        interpreted one relies on generator laziness for the same
        short-circuit.
        """
        if database.executor == "compiled":
            from repro.datalog.compiled import probe
            return probe(self, database, theta)
        regs = self._initial_registers(theta)
        return next(self._run_supports(database, 0, regs, (), ()),
                    None) is not None

    def derivations(self, database,
                    theta: Optional[Substitution] = None
                    ) -> Iterator[Tuple[Substitution, Tuple[Atom, ...],
                                        Tuple[Atom, ...]]]:
        """Yield ``(substitution, positive_supports, negative_supports)``
        from the interpreted reference executor.

        Supports are reported in *body order* (not plan order) so a
        derivation found through differently-seeded plans has one stable
        identity in the provenance index.  The compiled engine never
        comes here: it decodes head fact and supports straight from the
        closure's registers
        (:func:`repro.datalog.compiled.run_rule_derivations`).
        """
        regs = self._initial_registers(theta)
        for final, pos, neg in self._run_supports(database, 0, regs,
                                                  (), ()):
            # Body indexes are unique, so sorting never compares rows.
            yield (self._substitution(final, theta),
                   tuple(Atom(pred, row) for _, pred, row in sorted(pos)),
                   tuple(Atom(pred, row) for _, pred, row in sorted(neg)))

    def _run_supports(self, database, index: int, regs: List[object],
                      pos: Tuple[Tuple[int, str, Tuple], ...],
                      neg: Tuple[Tuple[int, str, Tuple], ...]
                      ) -> Iterator[Tuple[List[object], Tuple, Tuple]]:
        """The interpreter: one recursive generator over the step list,
        carrying ``(body_index, pred, row)`` per scanned / absent row."""
        if index == len(self.steps):
            yield regs, pos, neg
            return
        step = self.steps[index]
        kind = step.kind
        stats = database.stats
        if kind == _SCAN:
            relation = database.relation(step.pred)
            pattern: List[object] = [None] * step.arity
            for position, value in step.fixed:
                pattern[position] = value
            for position, slot in step.bound:
                pattern[position] = regs[slot]
            outs = step.outs
            next_index = index + 1
            for row in relation.lookup(pattern):
                new = regs[:]
                ok = True
                for position, slot in outs:
                    value = row[position]
                    current = new[slot]
                    if current is UNBOUND:
                        new[slot] = value
                    elif current != value:
                        ok = False
                        break
                if ok:
                    stats.join_tuples += 1
                    support = (step.body_index, step.pred, row)
                    yield from self._run_supports(
                        database, next_index, new, pos + (support,), neg)
        elif kind == _NEG:
            row = tuple(regs[value] if is_slot else value
                        for is_slot, value in step.args)
            stats.negation_checks += 1
            if not database.relation(step.pred).__contains__(row):
                absent = (step.body_index, step.pred, row)
                yield from self._run_supports(database, index + 1, regs,
                                              pos, neg + (absent,))
        elif kind == _CMP:
            (left_slot, left), (right_slot, right) = step.args
            left_value = regs[left] if left_slot else left
            right_value = regs[right] if right_slot else right
            stats.comparisons_evaluated += 1
            if compare_values(step.op, left_value, right_value):
                yield from self._run_supports(database, index + 1, regs,
                                              pos, neg)
        else:  # _BIND
            is_slot, source = step.source
            value = regs[source] if is_slot else source
            current = regs[step.slot]
            if current is UNBOUND:
                new = regs[:]
                new[step.slot] = value
                yield from self._run_supports(database, index + 1, new,
                                              pos, neg)
            elif current == value:
                yield from self._run_supports(database, index + 1, regs,
                                              pos, neg)


class QueryPlanner:
    """A memoizing compiler from conjunctive bodies to join plans.

    One planner (and one cache) is shared by the engine's stratum loop,
    the checker's full and delta-seeded premise evaluation, and the
    repair generator's derivation queries.  Cache keys include a coarse
    per-literal cardinality signature (bit length of the relation size)
    so plans are transparently recompiled as extensions grow by orders
    of magnitude; :meth:`invalidate` drops everything on rule or
    constraint changes.
    """

    def __init__(self, database) -> None:
        self.database = database
        self._cache: Dict[Tuple, JoinPlan] = {}

    def __len__(self) -> int:
        return len(self._cache)

    def _signature(self, body: Tuple[object, ...]) -> Tuple[int, ...]:
        counts = []
        for element in body:
            if isinstance(element, Literal):
                counts.append(self.database.count(element.pred).bit_length())
        return tuple(counts)

    def plan(self, body: Sequence[object],
             bound_vars: Iterable[Variable] = ()) -> JoinPlan:
        """Return a (cached) plan for *body* under the given bindings."""
        body = tuple(body)
        bound = frozenset(bound_vars)
        key = (body, bound, self._signature(body))
        plan = self._cache.get(key)
        if plan is not None:
            self.database.stats.plan_cache_hits += 1
            return plan
        obs = self.database.obs
        if obs.enabled:
            started = time.perf_counter()
            plan = compile_plan(self.database, body, bound)
            obs.metrics.histogram("planner.compile_ms").observe(
                (time.perf_counter() - started) * 1000.0)
            obs.metrics.histogram("planner.plan_steps").observe(
                len(plan.steps))
        else:
            plan = compile_plan(self.database, body, bound)
        self._cache[key] = plan
        self.database.stats.plans_compiled += 1
        return plan

    def plan_for(self, body: Sequence[object],
                 theta: Optional[Substitution] = None) -> JoinPlan:
        """Plan *body* with bindings inferred from a substitution."""
        body = tuple(body)
        return self.plan(body, _resolve_bound_vars(theta, body))

    def order_conjunction(self, body: Sequence[object],
                          theta: Optional[Substitution] = None
                          ) -> Tuple[object, ...]:
        """Reorder *body* the way a plan would evaluate it.

        Used by the repair generator, whose conjunction walker
        interleaves fact matching with insertion scheduling and so
        cannot run a plan directly — but still profits from evaluating
        selective, bound literals first.  Falls back to the original
        order when the body cannot be planned (e.g. insertions must
        bind variables no positive literal provides).
        """
        body = tuple(body)
        try:
            plan = self.plan(body, _resolve_bound_vars(theta, body))
        except PlanningError:
            return body
        return plan.ordered_body()

    def invalidate(self) -> None:
        """Drop every cached plan (rule or constraint set changed)."""
        self._cache.clear()
