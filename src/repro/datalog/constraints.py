"""Range-restricted FOL constraints (the CDB).

The paper specifies schema consistency as closed, range-restricted
first-order formulas of the shape

    forall vars:   premise  ==>  conclusion

where the premise is a conjunction of literals (and builtin comparisons)
and the conclusion is one of three forms:

* ``FALSE`` — a *denial*, e.g. acyclicity:  ``not SubTypRel_t(X, X)`` is
  written as ``SubTypRel_t(X, X) ==> FALSE``;
* a conjunction of comparisons — *uniqueness* constraints, e.g.
  ``Type(X1,Y1,Z) & Type(X2,Y2,Z) & Y1 = Y2 ==> X1 = X2``;
* a disjunction of (possibly existentially quantified) conjunctions of
  atoms — *existence* constraints, e.g. the paper's slot constraint (*)
  ``Attr_i(T,A,TA) & PhRep(C,T) ==> exists CA: Slot(C,A,CA) & PhRep(CA,TA)``.

Nested universal quantifiers in a conclusion (the paper's contravariance
constraint) are normalized away by splitting one formula into several
constraints whose premises absorb the inner quantifier — see
``repro.gom.constraints_core`` for the worked split.

Violations are the unit the checker reports and the repair generator
consumes: a constraint plus the grounding substitution that falsifies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import ConstraintSyntaxError
from repro.datalog.builtins import Comparison
from repro.datalog.rules import BodyElement, check_range_restricted
from repro.datalog.terms import (
    Atom,
    Literal,
    Substitution,
    Variable,
    substitute_term,
)


@dataclass(frozen=True)
class Disjunct:
    """One alternative of an existence conclusion:
    ``exists exist_vars: atoms & comparisons``."""

    atoms: Tuple[Atom, ...] = ()
    comparisons: Tuple[Comparison, ...] = ()
    exist_vars: Tuple[Variable, ...] = ()

    def __post_init__(self) -> None:
        if not self.atoms and not self.comparisons:
            raise ConstraintSyntaxError("empty disjunct in conclusion")
        declared = set(self.exist_vars)
        used: Set[Variable] = set()
        for atom in self.atoms:
            used.update(atom.variables())
        for comparison in self.comparisons:
            used.update(comparison.variables())
        missing = declared - used
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise ConstraintSyntaxError(
                f"existential variable(s) {names} unused in disjunct"
            )

    def body(self) -> Tuple[BodyElement, ...]:
        """The disjunct as a conjunctive query body."""
        return tuple(Literal(a) for a in self.atoms) + self.comparisons

    def substitute(self, theta: Substitution) -> "Disjunct":
        safe = {
            var: value for var, value in theta.items()
            if var not in self.exist_vars
        }
        return Disjunct(
            atoms=tuple(a.substitute(safe) for a in self.atoms),
            comparisons=tuple(c.substitute(safe) for c in self.comparisons),
            exist_vars=self.exist_vars,
        )

    def __repr__(self) -> str:
        parts = [repr(a) for a in self.atoms]
        parts += [repr(c) for c in self.comparisons]
        inner = " & ".join(parts)
        if self.exist_vars:
            names = ", ".join(v.name for v in self.exist_vars)
            return f"exists {names}: {inner}"
        return inner


class Conclusion:
    """Abstract conclusion of a constraint implication."""


@dataclass(frozen=True)
class FalseConclusion(Conclusion):
    """The conclusion ``FALSE``: the premise must be unsatisfiable."""

    def __repr__(self) -> str:
        return "FALSE"


@dataclass(frozen=True)
class EqualityConclusion(Conclusion):
    """A conjunction of builtin comparisons (uniqueness constraints)."""

    comparisons: Tuple[Comparison, ...]

    def __post_init__(self) -> None:
        if not self.comparisons:
            raise ConstraintSyntaxError("empty equality conclusion")

    def holds(self, theta: Substitution) -> bool:
        return all(c.holds(theta) for c in self.comparisons)

    def __repr__(self) -> str:
        return " & ".join(repr(c) for c in self.comparisons)


@dataclass(frozen=True)
class ExistenceConclusion(Conclusion):
    """A disjunction of possibly existentially quantified conjunctions."""

    disjuncts: Tuple[Disjunct, ...]

    def __post_init__(self) -> None:
        if not self.disjuncts:
            raise ConstraintSyntaxError("empty existence conclusion")

    def __repr__(self) -> str:
        return "  |  ".join(repr(d) for d in self.disjuncts)


@dataclass(frozen=True)
class Constraint:
    """``forall vars: premise ==> conclusion`` (closed, range restricted)."""

    name: str
    premise: Tuple[BodyElement, ...]
    conclusion: Conclusion
    doc: str = ""
    category: str = ""
    source: str = ""  # which feature module contributed the constraint

    def __init__(self, name: str, premise: Iterable[BodyElement],
                 conclusion: Conclusion, doc: str = "", category: str = "",
                 source: str = "") -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "premise", tuple(premise))
        object.__setattr__(self, "conclusion", conclusion)
        object.__setattr__(self, "doc", doc)
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "source", source)
        self._validate()

    def _validate(self) -> None:
        if not self.premise:
            raise ConstraintSyntaxError(
                f"constraint {self.name}: premise must not be empty"
            )
        # Range restriction: treat the premise as a rule body and demand
        # every universal variable of the conclusion be positively bound.
        universal = self.universal_variables()
        head = Atom("__constraint__", tuple(sorted(universal,
                                                   key=lambda v: v.name)))
        check_range_restricted(head, self.premise,
                               what=f"constraint {self.name}")

    def universal_variables(self) -> Set[Variable]:
        """Variables of the conclusion that must be bound by the premise."""
        conclusion = self.conclusion
        result: Set[Variable] = set()
        if isinstance(conclusion, EqualityConclusion):
            for comparison in conclusion.comparisons:
                result.update(comparison.variables())
        elif isinstance(conclusion, ExistenceConclusion):
            for disjunct in conclusion.disjuncts:
                existential = set(disjunct.exist_vars)
                for atom in disjunct.atoms:
                    result.update(v for v in atom.variables()
                                  if v not in existential)
                for comparison in disjunct.comparisons:
                    result.update(v for v in comparison.variables()
                                  if v not in existential)
        return result

    def premise_variables(self) -> Set[Variable]:
        result: Set[Variable] = set()
        for element in self.premise:
            result.update(element.variables())
        return result

    def positive_premise_literals(self) -> Iterator[Literal]:
        for element in self.premise:
            if isinstance(element, Literal) and element.positive:
                yield element

    def negative_premise_literals(self) -> Iterator[Literal]:
        for element in self.premise:
            if isinstance(element, Literal) and not element.positive:
                yield element

    def predicates(self) -> Set[str]:
        """Every predicate the constraint mentions (premise + conclusion)."""
        result = {
            element.pred for element in self.premise
            if isinstance(element, Literal)
        }
        if isinstance(self.conclusion, ExistenceConclusion):
            for disjunct in self.conclusion.disjuncts:
                result.update(a.pred for a in disjunct.atoms)
        return result

    def conclusion_predicates(self) -> Set[str]:
        if isinstance(self.conclusion, ExistenceConclusion):
            return {
                atom.pred
                for disjunct in self.conclusion.disjuncts
                for atom in disjunct.atoms
            }
        return set()

    def __repr__(self) -> str:
        premise = " & ".join(repr(e) for e in self.premise)
        return f"[{self.name}] {premise} ==> {self.conclusion!r}"


def key_constraint(pred: str, argnames: Sequence[str],
                   key: Sequence[int], source: str = "") -> Constraint:
    """Generate the key (functional-dependency) constraint for a predicate.

    The paper does not write key constraints out "due to their simplicity";
    they are generated mechanically from the predicate declarations.
    """
    arity = len(argnames)
    key = tuple(key)
    if not key or len(key) == arity:
        raise ConstraintSyntaxError(
            f"key constraint for {pred} needs a proper key"
        )
    args1 = []
    args2 = []
    comparisons: List[Comparison] = []
    for position in range(arity):
        var1 = Variable(f"{argnames[position].capitalize()}_1")
        if position in key:
            args1.append(var1)
            args2.append(var1)
        else:
            var2 = Variable(f"{argnames[position].capitalize()}_2")
            args1.append(var1)
            args2.append(var2)
            comparisons.append(Comparison("=", var1, var2))
    return Constraint(
        name=f"key_{pred}",
        premise=(Literal(Atom(pred, args1)), Literal(Atom(pred, args2))),
        conclusion=EqualityConclusion(tuple(comparisons)),
        doc=f"key of {pred} is ({', '.join(argnames[p] for p in key)})",
        category="key",
        source=source,
    )


def reference_constraint(pred: str, argnames: Sequence[str], position: int,
                         target_pred: str, target_argnames: Sequence[str],
                         target_position: int,
                         source: str = "") -> Constraint:
    """Generate a referential-integrity constraint.

    ``pred[position]`` must occur as ``target_pred[target_position]`` —
    the paper's "whole bunch of typical referential integrity constraints
    [that] always have the same pattern".
    """
    premise_args = [
        Variable(f"{name.capitalize()}_{index}")
        for index, name in enumerate(argnames)
    ]
    shared = premise_args[position]
    target_args: List[object] = []
    exist_vars: List[Variable] = []
    for index, name in enumerate(target_argnames):
        if index == target_position:
            target_args.append(shared)
        else:
            var = Variable(f"T{name.capitalize()}_{index}")
            target_args.append(var)
            exist_vars.append(var)
    return Constraint(
        name=f"ref_{pred}_{argnames[position]}_{target_pred}",
        premise=(Literal(Atom(pred, premise_args)),),
        conclusion=ExistenceConclusion((
            Disjunct(atoms=(Atom(target_pred, target_args),),
                     exist_vars=tuple(exist_vars)),
        )),
        doc=(f"{pred}.{argnames[position]} references "
             f"{target_pred}.{target_argnames[target_position]}"),
        category="reference",
        source=source,
    )
