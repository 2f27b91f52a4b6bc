"""Automatic generation of repairs for constraint violations.

Following the paper (and Moerkotte & Lockemann, TODS 1991), a violated
implication ``premise ==> conclusion`` under substitution θ "can be made
true by either invalidating the premise or by validating the conclusion":

* **premise invalidation** — for every positive premise conjunct, delete
  the matched fact.  When the conjunct is *derived* (e.g. ``Attr_i``), the
  repair must break **every** derivation of that fact; the generator walks
  the recorded derivation trees down to EDB leaves and combines the leaves
  into minimal cut sets (hitting sets over the derivations).  For negated
  premise conjuncts, insert the absent fact instead.
* **conclusion validation** — for every disjunct of an existence
  conclusion, bind the existential variables against facts already present
  and insert the residual atoms.  This is exactly how the paper's worked
  example obtains ``+Slot(clid4, fuelType, clid_string)``: the second
  conjunct ``PhRep(CA, tid_string)`` is satisfied by the existing
  representation of the built-in sort, binding ``CA = clid_string``, and
  the remaining ``Slot`` atom becomes the insertion.

Repairs are sets of signed ground facts over *base* predicates, plus the
original intensional-level action for display (the paper presents
``-Attr_i(tid4, fuelType, tid_string)`` at the derived level).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import RepairGenerationError
from repro.datalog.builtins import Comparison
from repro.datalog.checker import Violation
from repro.datalog.constraints import (
    Constraint,
    Disjunct,
    EqualityConclusion,
    ExistenceConclusion,
    FalseConclusion,
)
from repro.datalog.engine import DeductiveDatabase
from repro.datalog.terms import Atom, Literal, Substitution, Variable, match


@dataclass(frozen=True)
class NewConstant:
    """A placeholder for a value the user (or a cure routine) must supply.

    Appears in insertion repairs whose existential variable could not be
    bound from existing facts — e.g. a repair that requires creating a new
    physical representation.
    """

    hint: str

    def __repr__(self) -> str:
        return f"<new:{self.hint}>"


@dataclass(frozen=True)
class RepairAction:
    """One signed ground fact: ``+fact`` (insert) or ``-fact`` (delete)."""

    sign: str  # "+" or "-"
    fact: Atom

    def __post_init__(self) -> None:
        if self.sign not in ("+", "-"):
            raise ValueError(f"repair action sign must be + or -, got {self.sign}")

    @property
    def is_insertion(self) -> bool:
        return self.sign == "+"

    def requires_user_input(self) -> bool:
        return any(isinstance(arg, NewConstant) for arg in self.fact.args)

    def __repr__(self) -> str:
        return f"{self.sign}{self.fact!r}"


@dataclass(frozen=True)
class Repair:
    """One alternative cure for a violation.

    ``display_action`` is the action at the level the constraint is stated
    (possibly on a derived predicate, as the paper presents it);
    ``edb_actions`` are the equivalent changes to base-predicate
    extensions that actually execute the repair.  ``explanations`` are
    filled in by the Consistency Control, which asks the Analyzer and the
    Runtime System what each change means (protocol step 7).
    """

    display_action: RepairAction
    edb_actions: Tuple[RepairAction, ...]
    kind: str  # "invalidate-premise" or "validate-conclusion"
    explanations: Tuple[str, ...] = ()

    def requires_user_input(self) -> bool:
        return any(action.requires_user_input() for action in self.edb_actions)

    def describe(self) -> str:
        lines = [f"{self.display_action!r}   ({self.kind})"]
        if tuple(a for a in self.edb_actions) != (self.display_action,):
            for action in self.edb_actions:
                lines.append(f"    executes as {action!r}")
        for explanation in self.explanations:
            lines.append(f"    // {explanation}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return repr(self.display_action)


class RepairGenerator:
    """Generates all (useful) repairs for a violation."""

    def __init__(self, database: DeductiveDatabase,
                 max_cut_size: int = 3, max_repairs_per_conjunct: int = 8,
                 max_depth: int = 12) -> None:
        self.database = database
        self.max_cut_size = max_cut_size
        self.max_repairs_per_conjunct = max_repairs_per_conjunct
        self.max_depth = max_depth

    # -- public API -------------------------------------------------------------

    def repairs(self, violation: Violation) -> List[Repair]:
        """All repairs for one violation, premise repairs first.

        The order matches the paper's worked example: one repair per
        premise conjunct in premise order, then conclusion validations.
        """
        result: List[Repair] = []
        seen: Set[Tuple] = set()

        def push(repair: Repair) -> None:
            key = (repair.display_action.sign, repair.display_action.fact,
                   tuple(sorted((a.sign, repr(a.fact))
                                for a in repair.edb_actions)))
            if key not in seen:
                seen.add(key)
                result.append(repair)

        obs = self.database.obs
        started = time.perf_counter()
        with obs.span("repair.generate",
                      constraint=violation.constraint.name) as span:
            for repair in self._premise_repairs(violation):
                push(repair)
            for repair in self._conclusion_repairs(violation):
                push(repair)
            if obs.enabled:
                span.set("repairs", len(result))
                obs.metrics.counter("repair.violations_seen").inc()
                obs.metrics.counter("repair.repairs_emitted").inc(len(result))
                obs.metrics.histogram("repair.generate_ms").observe(
                    (time.perf_counter() - started) * 1000.0)
        return result

    # -- premise invalidation ------------------------------------------------------

    def _premise_repairs(self, violation: Violation) -> Iterator[Repair]:
        theta = violation.substitution
        for literal in violation.constraint.positive_premise_literals():
            fact = literal.atom.substitute(theta)
            if not fact.is_ground():
                continue
            display = RepairAction("-", fact)
            if self.database.is_base(fact.pred):
                yield Repair(display, (display,), "invalidate-premise")
                continue
            for cut in self._edb_cuts(fact):
                yield Repair(display, cut, "invalidate-premise")
        for literal in violation.constraint.negative_premise_literals():
            fact = literal.atom.substitute(theta)
            if not fact.is_ground():
                continue
            display = RepairAction("+", fact)
            if self.database.is_base(fact.pred):
                yield Repair(display, (display,), "invalidate-premise")
                continue
            for insertion_set in self._achieve(fact, self.max_depth):
                yield Repair(display, insertion_set, "invalidate-premise")

    def _edb_cuts(self, fact: Atom) -> List[Tuple[RepairAction, ...]]:
        """Sets of EDB actions whose execution falsifies *fact*.

        Each derivation of *fact* offers breaker *options* (action sets):
        delete one EDB leaf of a positive support, insert one negative
        support, or execute a whole nested cut for a derived support.  A
        cut picks one option per derivation and unions them.  Small
        instances are enumerated and pruned to minimal cuts; when every
        bounded cut exceeds ``max_cut_size`` (densely cyclic inputs) a
        greedy hitting set guarantees at least one valid repair.
        """
        per_derivation = self._breaker_options(fact, self.max_depth, set())
        if per_derivation is None or not per_derivation:
            return []
        cuts = self._cuts_from_options(per_derivation,
                                       size_limit=self.max_cut_size)
        if not cuts:
            greedy = self._greedy_cut(per_derivation)
            cuts = [greedy] if greedy is not None else []
        ordered = sorted(cuts,
                         key=lambda c: (len(c), sorted(repr(a) for a in c)))
        limited = ordered[: self.max_repairs_per_conjunct]
        return [tuple(sorted(cut, key=lambda a: (a.sign, repr(a.fact))))
                for cut in limited]

    def _breaker_options(self, fact: Atom, depth: int, visiting: Set[Atom]
                         ) -> Optional[List[List[FrozenSet[RepairAction]]]]:
        """Per derivation of *fact*, the action-set options breaking it."""
        if depth <= 0 or fact in visiting:
            return None
        derivations = self.database.derivations(fact)
        if not derivations:
            return None
        visiting = visiting | {fact}
        result: List[List[FrozenSet[RepairAction]]] = []
        for derivation in derivations:
            options: List[FrozenSet[RepairAction]] = []
            for support in derivation.positive_supports:
                if self.database.is_base(support.pred):
                    options.append(frozenset({RepairAction("-", support)}))
                else:
                    nested = self._breaker_options(support, depth - 1,
                                                   visiting)
                    if nested is None:
                        continue
                    nested_cuts = self._cuts_from_options(
                        nested, size_limit=self.max_cut_size)
                    if not nested_cuts:
                        greedy = self._greedy_cut(nested)
                        nested_cuts = [greedy] if greedy is not None else []
                    options.extend(nested_cuts[:4])
            for absent in derivation.negative_supports:
                if self.database.is_base(absent.pred):
                    options.append(frozenset({RepairAction("+", absent)}))
            if not options:
                return None  # this derivation cannot be broken
            result.append(options)
        return result

    def _cuts_from_options(self,
                           per_derivation: List[List[FrozenSet[RepairAction]]],
                           size_limit: Optional[int] = None
                           ) -> List[FrozenSet[RepairAction]]:
        """Enumerate minimal cuts, bounded in work and (optionally) size."""
        unique: List[List[FrozenSet[RepairAction]]] = []
        seen_lists: Set[FrozenSet] = set()
        for options in per_derivation:
            key = frozenset(options)
            if key not in seen_lists:
                seen_lists.add(key)
                unique.append(options)
        combinations = 1
        for options in unique:
            combinations *= max(1, len(options))
            if combinations > 20000:
                return []  # too large to enumerate; caller goes greedy
        cuts: List[FrozenSet[RepairAction]] = []
        for combo in itertools.islice(itertools.product(*unique), 20000):
            cut: FrozenSet[RepairAction] = frozenset().union(*combo)
            if size_limit is not None and len(cut) > size_limit:
                continue
            if any(existing <= cut for existing in cuts):
                continue
            cuts = [existing for existing in cuts if not cut <= existing]
            cuts.append(cut)
            if len(cuts) >= self.max_repairs_per_conjunct * 4:
                break
        return cuts

    @staticmethod
    def _greedy_cut(per_derivation: List[List[FrozenSet[RepairAction]]]
                    ) -> Optional[FrozenSet[RepairAction]]:
        """A valid (not necessarily minimal) cut via greedy hitting set."""
        remaining = list(per_derivation)
        chosen: Set[RepairAction] = set()
        while remaining:
            # Pick the option covering the most remaining derivations.
            best: Optional[FrozenSet[RepairAction]] = None
            best_cover = -1.0
            candidates = sorted(
                {option for options in remaining for option in options},
                key=lambda option: tuple(sorted(repr(action)
                                                for action in option)))
            for option in candidates:
                cover = sum(1 for options in remaining if option in options)
                weight = cover / max(1, len(option))
                if weight > best_cover:
                    best_cover = weight
                    best = option
            if best is None:
                return None
            chosen.update(best)
            remaining = [options for options in remaining
                         if not any(option <= chosen for option in options)]
        return frozenset(chosen)

    def _achieve(self, fact: Atom, depth: int
                 ) -> List[Tuple[RepairAction, ...]]:
        """Insertion sets making a (possibly derived) ground atom true."""
        if self.database.is_base(fact.pred):
            return [(RepairAction("+", fact),)]
        if depth <= 0:
            return []
        result: List[Tuple[RepairAction, ...]] = []
        for rule in self.database.program.rules_for(fact.pred):
            theta = match(rule.head, fact)
            if theta is None:
                continue
            body = [element.substitute(theta)
                    for element in rule.body]
            for insertion_set in self._satisfy_conjunction(body, depth - 1):
                result.append(insertion_set)
                if len(result) >= self.max_repairs_per_conjunct:
                    return result
        return result

    # -- conclusion validation --------------------------------------------------------

    def _conclusion_repairs(self, violation: Violation) -> Iterator[Repair]:
        conclusion = violation.constraint.conclusion
        if not isinstance(conclusion, ExistenceConclusion):
            return
        theta = violation.substitution
        for disjunct in conclusion.disjuncts:
            grounded = disjunct.substitute(theta)
            body: List[object] = [Literal(a) for a in grounded.atoms]
            body.extend(grounded.comparisons)
            for insertion_set in self._satisfy_conjunction(
                    body, self.max_depth):
                if not insertion_set:
                    continue  # conclusion already satisfiable — not a repair
                yield Repair(insertion_set[0], insertion_set,
                             "validate-conclusion")

    def _satisfy_conjunction(self, body: Sequence[object], depth: int,
                             theta: Optional[Substitution] = None
                             ) -> List[Tuple[RepairAction, ...]]:
        """Minimal insertion sets satisfying a conjunction.

        Each atom is either matched against existing facts (binding
        variables — this is how existentials get bound, preferring real
        constants) or scheduled for insertion.  Unbound variables in
        scheduled insertions become :class:`NewConstant` placeholders.

        The conjunction is reordered by the shared query planner before
        the search: binding existentials through the most selective
        conjunct first keeps the match-or-insert tree small.  Bodies the
        planner cannot order (it assumes every positive conjunct can be
        scanned) keep their written order.
        """
        body = self.database.planner.order_conjunction(body, theta)
        solutions: List[Tuple[RepairAction, ...]] = []
        seen: Set[FrozenSet] = set()
        rename_counter = itertools.count()

        def rename_apart(rule) -> Tuple[Atom, List[object]]:
            # Standardize the rule's variables apart from the goal's:
            # without this, a rule reusing a variable name already bound
            # in theta (or bound higher in the splice stack) produces a
            # cyclic substitution instead of a fresh existential.
            suffix = next(rename_counter)
            renaming: Substitution = {}
            for element in (rule.head, *rule.body):
                for var in element.variables():
                    renaming.setdefault(
                        var, Variable(f"{var.name}__r{suffix}"))
            return (rule.head.substitute(renaming),
                    [element.substitute(renaming) for element in rule.body])

        def walk(remaining: Sequence[object], theta: Substitution,
                 pending: List[Atom], level: int) -> None:
            if len(solutions) >= self.max_repairs_per_conjunct:
                return
            if not remaining:
                actions: List[RepairAction] = []
                counter = itertools.count()
                fresh: Dict[Variable, NewConstant] = {}
                for atom in pending:
                    grounded_args = []
                    for arg in atom.substitute(theta).args:
                        if isinstance(arg, Variable):
                            placeholder = fresh.setdefault(
                                arg, NewConstant(arg.name))
                            grounded_args.append(placeholder)
                        else:
                            grounded_args.append(arg)
                    actions.append(
                        RepairAction("+", Atom(atom.pred, grounded_args)))
                key = frozenset((a.sign, repr(a.fact)) for a in actions)
                if key in seen:
                    return
                seen.add(key)
                solutions.append(tuple(actions))
                return
            element, rest = remaining[0], remaining[1:]
            if isinstance(element, Comparison):
                bound = element.substitute(theta)
                if bound.is_ground():
                    if bound.holds():
                        walk(rest, theta, pending, level)
                    return
                if bound.op == "=":
                    left_is_var = isinstance(bound.left, Variable)
                    right_is_var = isinstance(bound.right, Variable)
                    if left_is_var != right_is_var:
                        var = bound.left if left_is_var else bound.right
                        value = bound.right if left_is_var else bound.left
                        extended = dict(theta)
                        extended[var] = value
                        walk(rest, extended, pending, level)
                        return
                return  # cannot satisfy an unbound non-equality comparison
            literal: Literal = element
            atom = literal.atom.substitute(theta)
            if not literal.positive:
                # A negated conjunct: satisfied when the atom is absent.
                if atom.is_ground() and not self.database.contains(atom):
                    walk(rest, theta, pending, level)
                return
            # Option 1: satisfied by an existing fact (binds variables).
            # Sorted for determinism: which solutions fit under the
            # repair cap must not depend on hash ordering.
            for fact in sorted(self.database.matching(atom), key=repr):
                extended = match(atom, fact, theta)
                if extended is not None:
                    walk(rest, extended, pending, level)
            # Option 2: schedule insertion.
            if self.database.is_base(atom.pred):
                walk(rest, theta, pending + [literal.atom], level)
            elif level > 0:
                # Derived conjunct: satisfy one of its rules' bodies.
                for rule in self.database.program.rules_for(atom.pred):
                    head, rule_body = rename_apart(rule)
                    head_theta = match(head, atom, theta)
                    if head_theta is None:
                        continue
                    spliced = rule_body + list(rest)
                    walk(spliced, head_theta, pending, level - 1)

        walk(list(body), dict(theta) if theta else {}, [], depth)
        ordered = sorted(solutions, key=len)
        # Prune supersets so only minimal insertion sets remain.
        minimal: List[Tuple[RepairAction, ...]] = []
        for solution in ordered:
            solution_set = frozenset((a.sign, repr(a.fact)) for a in solution)
            if any(
                frozenset((a.sign, repr(a.fact)) for a in kept) <= solution_set
                for kept in minimal
            ):
                continue
            minimal.append(solution)
        return minimal
