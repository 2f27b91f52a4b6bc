"""Full and incremental consistency checking.

The *Consistency Control* defers checking to the end of an evolution
session (EES).  Two strategies are provided:

* :meth:`ConsistencyChecker.check` — the naive baseline: enumerate every
  premise instantiation of every constraint, one constraint after the
  other (a thread-pool fan-out lived here once; under the GIL it was
  8–32 % slower than this loop at 60–400 types and was deleted);
* :meth:`ConsistencyChecker.check_delta` — the efficient check in the
  spirit of Moerkotte & Rösch: only constraint instantiations that can be
  *newly violated* by a given update are enumerated, by seeding premise
  evaluation with the update's added/deleted facts (including derived
  deltas obtained from predicate-level view maintenance).

``check_delta`` is complete relative to a consistent pre-update state: if
the database satisfied all constraints before the update, it reports
exactly the violations present afterwards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from repro.errors import PlanningError
from repro.datalog.builtins import compare_values
from repro.datalog.constraints import (
    Conclusion,
    Constraint,
    EqualityConclusion,
    ExistenceConclusion,
    FalseConclusion,
)
from repro.datalog.engine import DeductiveDatabase
from repro.datalog.plan import JoinPlan
from repro.datalog.terms import Atom, Literal, Substitution, Variable, match, unify

@dataclass(frozen=True)
class Violation:
    """One falsifying instantiation of one constraint."""

    constraint: Constraint
    theta: Tuple[Tuple[Variable, object], ...]
    premise_facts: Tuple[Atom, ...]
    absent_facts: Tuple[Atom, ...] = ()

    @property
    def substitution(self) -> Substitution:
        return dict(self.theta)

    def describe(self) -> str:
        """A detailed description, as the paper demands (no "stupid yes/no")."""
        bindings = ", ".join(f"{var.name}={value}" for var, value in self.theta)
        lines = [
            f"violated constraint: {self.constraint.name}",
        ]
        if self.constraint.doc:
            lines.append(f"  meaning: {self.constraint.doc}")
        lines.append(f"  witness: {bindings}")
        if self.premise_facts:
            facts = ", ".join(repr(f) for f in self.premise_facts)
            lines.append(f"  matched facts: {facts}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        bindings = ", ".join(f"{var.name}={value}" for var, value in self.theta)
        return f"Violation({self.constraint.name}; {bindings})"


@dataclass
class CheckReport:
    """Result of one consistency check."""

    violations: List[Violation]
    constraints_checked: int
    elapsed_seconds: float
    mode: str  # "full" or "delta"

    @property
    def consistent(self) -> bool:
        return not self.violations

    def by_constraint(self) -> Dict[str, List[Violation]]:
        grouped: Dict[str, List[Violation]] = {}
        for violation in self.violations:
            grouped.setdefault(violation.constraint.name, []).append(violation)
        return grouped

    def describe(self) -> str:
        if self.consistent:
            return (f"consistent ({self.constraints_checked} constraints, "
                    f"{self.mode} check, {self.elapsed_seconds * 1000:.2f} ms)")
        lines = [f"{len(self.violations)} violation(s) "
                 f"({self.mode} check, {self.elapsed_seconds * 1000:.2f} ms):"]
        for violation in self.violations:
            lines.append(violation.describe())
        return "\n".join(lines)


def _violation_key(constraint: Constraint,
                   theta: Substitution) -> Tuple:
    items = tuple(sorted(
        ((var.name, theta[var]) for var in theta),
        key=lambda item: item[0],
    ))
    return (constraint.name, items)


class ConsistencyChecker:
    """Checks a set of constraints against a deductive database."""

    def __init__(self, database: DeductiveDatabase,
                 constraints: Iterable[Constraint] = ()) -> None:
        self.database = database
        self._constraints: List[Constraint] = []
        self._by_name: Dict[str, Constraint] = {}
        for constraint in constraints:
            self.add_constraint(constraint)

    # -- constraint registry ---------------------------------------------------

    def add_constraint(self, constraint: Constraint) -> None:
        if constraint.name in self._by_name:
            raise ValueError(f"constraint {constraint.name} already registered")
        self._by_name[constraint.name] = constraint
        self._constraints.append(constraint)
        # Premises/conclusions are planned through the shared cache; a new
        # constraint may reuse a body shape with different binding needs.
        self.database.planner.invalidate()

    def remove_constraint(self, name: str) -> Constraint:
        constraint = self._by_name.pop(name)
        self._constraints.remove(constraint)
        self.database.planner.invalidate()
        return constraint

    def constraint(self, name: str) -> Constraint:
        return self._by_name[name]

    def constraints(self) -> List[Constraint]:
        return list(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    # -- full check --------------------------------------------------------------

    def check(self, constraints: Optional[Sequence[Constraint]] = None
              ) -> CheckReport:
        """Full check: enumerate every premise instantiation."""
        start = time.perf_counter()
        targets = list(constraints) if constraints is not None \
            else list(self._constraints)
        return self._report("full", start, targets, self._check_constraint,
                            constraints=len(targets))

    def _report(self, mode: str, start: float,
                targets: Sequence[Constraint],
                violations_of: Callable[[Constraint], Iterable[Violation]],
                **span_attrs: object) -> CheckReport:
        """Run *violations_of* per constraint into one :class:`CheckReport`.

        Each constraint's violations are deduplicated and sorted by a
        canonical key, so the report's order depends on neither set
        iteration nor the interpreter's hash seed: the protocol repairs
        ``violations[0]`` and logs it, and two runs must log the same.
        """
        stats = self.database.stats
        stats.checks_run += 1
        violations: List[Violation] = []
        tracer = self.database.obs.tracer
        with tracer.span(f"check.{mode}", **span_attrs) as span:
            for constraint in targets:
                constraint_start = time.perf_counter()
                with tracer.span("check.constraint",
                                 constraint=constraint.name) as cspan:
                    found: Dict[str, Violation] = {}
                    for violation in violations_of(constraint):
                        found.setdefault(repr(_violation_key(
                            constraint, violation.substitution)), violation)
                    violations.extend(found[key] for key in sorted(found))
                    cspan.set("violations", len(found))
                stats.record_constraint(
                    constraint.name, time.perf_counter() - constraint_start)
            span.set("violations", len(violations))
        stats.constraints_checked += len(targets)
        stats.violations_found += len(violations)
        return CheckReport(violations=violations,
                           constraints_checked=len(targets),
                           elapsed_seconds=time.perf_counter() - start,
                           mode=mode)

    def _check_constraint(self, constraint: Constraint,
                          seed: Optional[Substitution] = None,
                          plan: Optional[JoinPlan] = None
                          ) -> Iterable[Violation]:
        """Violations of *constraint* among the premise rows *seed*
        extends; *plan* must be the premise planned with exactly the
        seed's variables bound (looked up here when not given)."""
        if plan is None:
            plan = self.database.planner.plan_for(constraint.premise, seed)
        if self.database.executor == "compiled":
            return self._check_constraint_compiled(constraint, seed, plan)
        return [self._make_violation(constraint, theta)
                for theta in plan.substitutions(self.database, seed)
                if not self._conclusion_holds(constraint.conclusion, theta)]

    def _check_constraint_compiled(self, constraint: Constraint,
                                   seed: Optional[Substitution],
                                   plan: JoinPlan) -> List[Violation]:
        """One constraint through the compiled executor, code-level.

        The premise closure yields raw register tuples; the conclusion
        is tested per tuple without ever materializing a substitution —
        ``=`` / ``!=`` compare codes, ordering decodes through the
        shared symbol table, and existence disjuncts probe with
        pre-mapped registers and ``limit=1``.  The premise *plan* comes
        from the caller (one per seed literal in a delta check), and the
        disjunct plans are hoisted out of the row loop entirely.  A
        substitution is decoded only for the rows that violate.
        """
        from repro.datalog.compiled import compiled_for, run_codes

        database = self.database
        stats = database.stats
        compiled, rows = run_codes(plan, database, seed)
        if not rows:
            return []
        symbols = database.symbols
        values = symbols.values
        var_slots = plan.var_slots

        def theta_of(regs) -> Substitution:
            theta: Substitution = dict(seed) if seed else {}
            for var, slot in compiled.var_items:
                theta[var] = values[regs[slot]]
            return theta

        def slot_of(var: Variable) -> int:
            slot = var_slots.get(var)
            if slot is None:
                # Constraint construction checks range restriction.
                raise PlanningError(
                    f"conclusion of {constraint.name} reads {var!r}, "
                    f"which its premise never binds")
            return slot

        conclusion = constraint.conclusion
        violations: List[Violation] = []
        if isinstance(conclusion, FalseConclusion):
            for regs in rows:
                violations.append(
                    self._make_violation(constraint, theta_of(regs)))
            return violations

        if isinstance(conclusion, EqualityConclusion):
            # (op, (is_slot, slot-or-value), (is_slot, slot-or-value)).
            tests = []
            for comparison in conclusion.comparisons:
                sides = []
                for term in (comparison.left, comparison.right):
                    if isinstance(term, Variable):
                        sides.append((True, slot_of(term)))
                    else:
                        sides.append((False, term))
                tests.append((comparison.op, sides[0], sides[1]))
            for regs in rows:
                for op, (left_slot, left), (right_slot, right) in tests:
                    stats.comparisons_evaluated += 1
                    if op in ("=", "!="):
                        lhs = regs[left] if left_slot else symbols.code(left)
                        rhs = regs[right] if right_slot \
                            else symbols.code(right)
                        ok = (lhs == rhs) if op == "=" else (lhs != rhs)
                    else:
                        ok = compare_values(
                            op,
                            values[regs[left]] if left_slot else left,
                            values[regs[right]] if right_slot else right)
                    if not ok:
                        violations.append(self._make_violation(
                            constraint, theta_of(regs)))
                        break
            return violations

        if isinstance(conclusion, ExistenceConclusion):
            # Per disjunct (hoisted out of the row loop): the plan, its
            # closure, and the premise-slot -> disjunct-slot seed map.
            probes = []
            for disjunct in conclusion.disjuncts:
                body = disjunct.body()
                existential = set(disjunct.exist_vars)
                bound = frozenset(
                    var
                    for element in body
                    for var in element.variables()
                    if var not in existential
                )
                disjunct_plan = database.planner.plan(body, bound)
                disjunct_compiled = compiled_for(disjunct_plan, database)
                pairs = tuple(
                    (slot_of(var), disjunct_plan.var_slots[var])
                    for var in bound
                )
                probes.append((disjunct_compiled.runner,
                               disjunct_plan.nslots, pairs))
            for regs in rows:
                satisfied = False
                for runner, nslots, pairs in probes:
                    disjunct_init: List[Optional[int]] = [None] * nslots
                    for premise_slot, disjunct_slot in pairs:
                        disjunct_init[disjunct_slot] = regs[premise_slot]
                    if runner(database, disjunct_init, 1, stats):
                        satisfied = True
                        break
                if not satisfied:
                    violations.append(
                        self._make_violation(constraint, theta_of(regs)))
            return violations

        raise TypeError(
            f"unknown conclusion type {type(conclusion).__name__}")

    def _conclusion_holds(self, conclusion: Conclusion,
                          theta: Substitution) -> bool:
        if isinstance(conclusion, FalseConclusion):
            return False
        if isinstance(conclusion, EqualityConclusion):
            return conclusion.holds(theta)
        if isinstance(conclusion, ExistenceConclusion):
            for disjunct in conclusion.disjuncts:
                if self.database.holds(disjunct.body(), theta):
                    return True
            return False
        raise TypeError(f"unknown conclusion type {type(conclusion).__name__}")

    def _make_violation(self, constraint: Constraint,
                        theta: Substitution) -> Violation:
        relevant_vars = constraint.premise_variables()
        trimmed = tuple(sorted(
            ((var, theta[var]) for var in theta if var in relevant_vars),
            key=lambda item: item[0].name,
        ))
        premise_facts = tuple(
            literal.atom.substitute(theta)
            for literal in constraint.positive_premise_literals()
        )
        absent = tuple(
            literal.atom.substitute(theta)
            for literal in constraint.negative_premise_literals()
        )
        return Violation(constraint=constraint, theta=trimmed,
                         premise_facts=premise_facts, absent_facts=absent)

    # -- incremental check ---------------------------------------------------------

    def check_delta(self, additions: Iterable[Atom],
                    deletions: Iterable[Atom],
                    derived_delta: Optional[Dict[str, Tuple[Set[Atom],
                                                            Set[Atom]]]]
                    = None) -> CheckReport:
        """Check only instantiations that the given update can have violated.

        The update must already be applied to the database; *additions* /
        *deletions* describe it.  Sound and complete relative to a
        consistent pre-update state.  Exact derived-predicate deltas come
        from *derived_delta* — the per-predicate (grown, shrunk) sets
        accumulated by the engine's view maintenance
        (:meth:`~repro.datalog.engine.DeductiveDatabase.derived_delta`).
        Without it (the accounting was tainted, or the engine recomputes
        instead of maintaining) the checker falls back to a sound but
        slow over-approximation, which is counted in
        ``EngineStats.delta_fallbacks``.
        """
        start = time.perf_counter()
        additions = list(additions)
        deletions = list(deletions)
        base_added = {f.pred for f in additions}
        base_deleted = {f.pred for f in deletions}
        may_grow, may_shrink = self._polarity_closure(base_added, base_deleted)

        added_facts: Dict[str, List[Atom]] = {}
        deleted_facts: Dict[str, List[Atom]] = {}
        for fact in additions:
            added_facts.setdefault(fact.pred, []).append(fact)
        for fact in deletions:
            deleted_facts.setdefault(fact.pred, []).append(fact)
        self._extend_with_derived_deltas(may_grow, may_shrink,
                                         added_facts, deleted_facts,
                                         derived_delta)
        return self._report(
            "delta", start, self._constraints,
            lambda constraint: self._seeded_checks(
                constraint, added_facts, deleted_facts),
            base_plus=len(additions), base_minus=len(deletions))

    def _polarity_closure(self, base_added: Set[str], base_deleted: Set[str]
                          ) -> Tuple[Set[str], Set[str]]:
        """Compute which predicates may have grown / shrunk.

        Base predicates grow/shrink exactly as the delta says.  For derived
        predicates the polarity propagates through rules: a head may grow
        when a positive body predicate may grow or a negated one may
        shrink, and vice versa.
        """
        may_grow = set(base_added)
        may_shrink = set(base_deleted)
        changed = True
        while changed:
            changed = False
            for rule in self.database.program:
                head = rule.head.pred
                grow = head in may_grow
                shrink = head in may_shrink
                for element in rule.body:
                    if not isinstance(element, Literal):
                        continue
                    if element.positive:
                        grow = grow or element.pred in may_grow
                        shrink = shrink or element.pred in may_shrink
                    else:
                        grow = grow or element.pred in may_shrink
                        shrink = shrink or element.pred in may_grow
                if grow and head not in may_grow:
                    may_grow.add(head)
                    changed = True
                if shrink and head not in may_shrink:
                    may_shrink.add(head)
                    changed = True
        return may_grow, may_shrink

    def _extend_with_derived_deltas(self, may_grow: Set[str],
                                    may_shrink: Set[str],
                                    added_facts: Dict[str, List[Atom]],
                                    deleted_facts: Dict[str, List[Atom]],
                                    derived_delta: Optional[
                                        Dict[str, Tuple[Set[Atom],
                                                        Set[Atom]]]]
                                    ) -> None:
        """Obtain concrete derived deltas for affected derived predicates.

        A maintained *derived_delta* is exact and free (the engine
        already knows which derived facts grew/shrank).  Without one,
        grown predicates are over-approximated by their full current
        extension, and shrunk predicates force a full recheck of the
        constraints reading them (marked with the ``<pred>!full``
        sentinel consumed by :meth:`_seeded_checks`) — sound, but the
        slow path, so falling into it is counted.
        """
        fallbacks = 0
        for pred in sorted(may_grow | may_shrink):
            if not self.database.is_derived(pred):
                continue
            if derived_delta is not None:
                grown, shrunk = derived_delta.get(pred, ((), ()))
                added_facts.setdefault(pred, []).extend(grown)
                deleted_facts.setdefault(pred, []).extend(shrunk)
            else:
                fallbacks += 1
                if pred in may_grow:
                    added_facts.setdefault(pred, []).extend(
                        self.database.facts(pred))
                # Shrunk derived facts are gone; the conclusion-side
                # recheck must fall back to a full pass over the
                # constraint, handled in _seeded_checks.
                if pred in may_shrink:
                    deleted_facts.setdefault(pred, [])
                    deleted_facts[pred + "!full"] = []
        if fallbacks:
            self.database.stats.delta_fallbacks += fallbacks

    def _seeded_checks(self, constraint: Constraint,
                       added_facts: Dict[str, List[Atom]],
                       deleted_facts: Dict[str, List[Atom]]
                       ) -> Iterator[Violation]:
        """Yield violations of *constraint* creatable by the delta.

        The premise is planned once per seed literal, bound on the
        variables every fact of that literal grounds, and the plan is
        shared by all of the literal's seed facts.
        """
        if any(f"{pred}!full" in deleted_facts
               for pred in constraint.predicates()):
            yield from self._check_constraint(constraint)
            return
        premise = constraint.premise
        planner = self.database.planner
        # 1. New premise matches through grown positive literals and
        #    shrunk negated ones.
        for literal in premise:
            if not isinstance(literal, Literal):
                continue
            source = added_facts if literal.positive else deleted_facts
            facts = source.get(literal.pred)
            if not facts:
                continue
            plan = planner.plan(premise, literal.variables())
            for fact in facts:
                seed = match(literal.atom, fact)
                if seed is not None:
                    yield from self._check_constraint(constraint, seed, plan)
        # 2. Conclusion support removed: premise instantiations whose
        #    existence conclusion may have used a deleted fact.
        if isinstance(constraint.conclusion, ExistenceConclusion):
            universal = constraint.universal_variables()
            for disjunct in constraint.conclusion.disjuncts:
                for atom in disjunct.atoms:
                    facts = deleted_facts.get(atom.pred)
                    if not facts:
                        continue
                    plan = planner.plan(premise,
                                        set(atom.variables()) & universal)
                    for fact in facts:
                        seed_full = unify(atom, fact)
                        if seed_full is None:
                            continue
                        seed = {var: value
                                for var, value in seed_full.items()
                                if var in universal}
                        yield from self._check_constraint(constraint, seed,
                                                          plan)
