"""Plan-closure compilation: joins as specialized Python functions.

This is the engine's one production executor.  The interpreted
reference in :mod:`repro.datalog.plan` walks a
:class:`~repro.datalog.plan.JoinPlan` step list with a recursive
generator, copying a register list per candidate row and building a
substitution dict per result.  This module lowers the *same* step list,
on the plan's first execution, into one straight-line nested-loop
closure over **interned codes**:

* registers are local variables (no list copies, no ``UNBOUND``
  sentinels — boundness is static, decided at compile time exactly as
  the scheduler decided it);
* bound-column probes read the relation's per-column ``{code: rid-set}``
  index and filter further bound columns by direct ``array`` access —
  integer equality, no tuple allocation on interior steps;
* ``=`` / ``!=`` comparisons compare codes (the symbol table conflates
  ``==``-equal values exactly like the previous set storage did), while
  ordering comparisons decode through the shared table and reuse
  :func:`~repro.datalog.builtins.compare_values`;
* query constants are **soft-resolved** per execution — a constant the
  store never interned gets the :data:`~repro.datalog.symbols.MISSING`
  code, which matches no bucket, no row key, and no register, so a
  cached closure can never go stale when a constant is interned later.

A closure yields raw register tuples (codes).  Decoding happens only at
the boundary: substitutions for callers of ``query``, and head atoms
plus body-ordered support atoms for the provenance-recording engine
paths.  Support atoms need nothing recorded during the join — every
scanned row position is a fixed constant, a bound register, or an out
register, so the supports are reconstructed from the final registers
and per-step metadata alone.

There is no warm-up tier and no fall-back to the interpreter.  Plans
used to run interpreted twice before lowering, which sent 46 % of the
"compiled" executions over tier-1 (182,147 of 392,153) through the
reference the oracle compares against; lowering at once moved no
end-to-end spine metric by more than 3 %, because closure sources repeat
and the code-object cache below absorbs them.  The entry points used to
answer ``None`` for calls they could not run faithfully; none of those
exits was taken once over the 1,216 tier-1 tests and the fuzz corpus,
so a seed that disagrees with the plan's bound variables, or a head
variable the body never binds, is now a
:class:`~repro.errors.PlanningError` — a planner or caller bug, not an
input.  ``executor="interpreted"`` databases never reach this module;
``tests/datalog/test_executor_equivalence.py`` and the fuzzer's
``compiled_vs_interpreted`` oracle hold the two to the same answers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import PlanningError
from repro.datalog.builtins import compare_values
from repro.datalog.plan import _BIND, _CMP, _NEG, _SCAN, JoinPlan
from repro.datalog.terms import Atom, Substitution, Variable, substitute_term

__all__ = [
    "compiled_for",
    "probe",
    "run_codes",
    "run_rule_derivations",
    "run_substitutions",
]

#: Missing-entry sentinel distinguishable from every legitimate value
#: (thetas may bind ``None``).
_ABSENT = object()


class CompiledPlan:
    """One plan's lowered closure plus the static decode metadata."""

    __slots__ = ("runner", "bound_slots", "var_items", "pos_spec",
                 "neg_spec", "source", "head_specs")

    def __init__(self, runner, bound_slots, var_items, pos_spec, neg_spec,
                 source) -> None:
        #: ``runner(database, init, limit, stats) -> list[tuple[int, ...]]``
        self.runner = runner
        #: Slots the closure expects pre-seeded (the plan's bound vars).
        self.bound_slots = bound_slots
        #: ``(variable, slot)`` pairs for decoding substitutions.
        self.var_items = var_items
        #: Positive-support spec, body order: ``(body_index, pred, argspec)``
        #: where argspec entries are ``(True, slot)`` or ``(False, value)``.
        self.pos_spec = pos_spec
        #: Negative-support spec, same shape.
        self.neg_spec = neg_spec
        #: The generated Python source (debugging / ``explain``).
        self.source = source
        #: Per-head decode spec cache for :func:`run_rule_derivations`
        #: (a plan serves one rule, but the seeded maintenance paths
        #: call it thousands of times per saturation).
        self.head_specs: dict = {}


def compiled_for(plan: JoinPlan, database) -> CompiledPlan:
    """The (cached) compiled form of *plan*; compiles on first use."""
    compiled = plan._cc
    if compiled is None:
        compiled = plan._cc = _compile(plan)
        database.stats.compiled_plans += 1
    return compiled


# -- code generation --------------------------------------------------------

#: Generated source -> code object.  Process-wide: closure *sources*
#: depend only on plan structure, so they repeat across engines, test
#: cases, and planner-cache invalidations.
_CODE_CACHE: Dict[str, object] = {}
_CODE_CACHE_LIMIT = 4096


def _tuple_expr(items: Sequence[str]) -> str:
    if len(items) == 1:
        return f"({items[0]},)"
    return "(" + ", ".join(items) + ")"


def _compile(plan: JoinPlan) -> CompiledPlan:
    steps = plan.steps
    nslots = plan.nslots
    consts: List[object] = []
    const_names: Dict[int, str] = {}

    def raw_const(value) -> str:
        """The global name holding *value* itself."""
        key = len(consts)
        consts.append(value)
        return f"K{key}"

    soft_cache: Dict[object, str] = {}
    soft_lines: List[str] = []

    def soft_const(value) -> str:
        """A local holding the soft-resolved code of *value*."""
        try:
            name = soft_cache.get(value)
        except TypeError:  # pragma: no cover - constants are hashable
            name = None
        if name is None:
            name = f"c{len(soft_lines)}"
            soft_lines.append(f"{name} = code_of({raw_const(value)})")
            soft_cache[value] = name
        return name

    intern_lines: List[str] = []

    def intern_const(value) -> str:
        """A local holding the hard-interned code of *value*."""
        name = f"ic{len(intern_lines)}"
        intern_lines.append(f"{name} = intern({raw_const(value)})")
        return name

    rel_names: Dict[str, str] = {}
    for step in steps:
        if step.kind in (_SCAN, _NEG) and step.pred not in rel_names:
            rel_names[step.pred] = f"rel{len(rel_names)}"
    #: (relation local, accessor) pairs actually referenced by the body.
    accessor_lines: Dict[str, str] = {}

    def rows_local(pred: str) -> str:
        name = f"{rel_names[pred]}_rows"
        accessor_lines[name] = f"{name} = {rel_names[pred]}._row_ids"
        return name

    def index_local(pred: str, position: int) -> str:
        name = f"{rel_names[pred]}_idx{position}"
        accessor_lines[name] = \
            f"{name} = {rel_names[pred]}._indexes[{position}]"
        return name

    def column_local(pred: str, position: int) -> str:
        name = f"{rel_names[pred]}_col{position}"
        accessor_lines[name] = \
            f"{name} = {rel_names[pred]}._columns[{position}]"
        return name

    uses_values = False
    body: List[str] = []
    bound_slots = sorted(
        slot for var, slot in plan.var_slots.items()
        if var in plan.bound_vars
    )
    bound: Set[int] = set(bound_slots)

    def pad(depth: int) -> str:
        return "    " * depth

    def emit(index: int, depth: int) -> None:
        nonlocal uses_values
        if index == len(steps):
            regs = _tuple_expr([f"r{slot}" for slot in range(nslots)]) \
                if nslots else "()"
            body.append(pad(depth) + "jt += 1")
            body.append(pad(depth) + f"append({regs})")
            body.append(pad(depth) + "if limit and len(out) >= limit:")
            body.append(pad(depth + 1) + "stats.join_tuples += jt")
            body.append(pad(depth + 1) + "return out")
            return
        step = steps[index]
        kind = step.kind
        if kind == _SCAN:
            pred = step.pred
            probes: List[Tuple[int, str]] = \
                [(position, soft_const(value))
                 for position, value in step.fixed] + \
                [(position, f"r{slot}") for position, slot in step.bound]
            probes.sort(key=lambda item: item[0])
            if len(probes) == step.arity:
                # Fully bound: one membership probe on the row-key dict.
                exprs = [expr for _position, expr in probes]
                body.append(pad(depth) + "stats.index_lookups += 1")
                body.append(pad(depth) +
                            f"if {_tuple_expr(exprs)} in {rows_local(pred)}:")
                body.append(pad(depth + 1) + "stats.facts_scanned += 1")
                emit(index + 1, depth + 1)
                return
            if not probes:
                # Unbound: walk the row-key dict, codes come for free.
                rows = rows_local(pred)
                row = f"row{index}"
                body.append(pad(depth) +
                            f"stats.facts_scanned += len({rows})")
                body.append(pad(depth) + f"for {row} in {rows}:")
                depth += 1
                for position, slot in step.outs:
                    if slot in bound:
                        body.append(pad(depth) +
                                    f"if {row}[{position}] != r{slot}:")
                        body.append(pad(depth + 1) + "continue")
                    else:
                        body.append(pad(depth) +
                                    f"r{slot} = {row}[{position}]")
                        bound.add(slot)
                emit(index + 1, depth)
                return
            # Partially bound: fetch every probed bucket, keep the
            # smallest, and re-check the other probed columns by direct
            # column access per candidate rid (cheaper than building
            # intersection sets row-for-row).
            bucket = f"b{index}"
            body.append(pad(depth) + "stats.index_lookups += 1")
            position, expr = probes[0]
            body.append(pad(depth) +
                        f"{bucket} = {index_local(pred, position)}"
                        f".get({expr})")
            body.append(pad(depth) + f"if {bucket}:")
            depth += 1
            for extra, (position, expr) in enumerate(probes[1:]):
                other = f"{bucket}_{extra}"
                body.append(pad(depth) +
                            f"{other} = {index_local(pred, position)}"
                            f".get({expr})")
                body.append(pad(depth) + f"if {other}:")
                depth += 1
                body.append(pad(depth) +
                            f"if len({other}) < len({bucket}):")
                body.append(pad(depth + 1) + f"{bucket} = {other}")
            if len(probes) > 1:
                body.append(pad(depth) + "stats.index_intersections += 1")
            body.append(pad(depth) + f"stats.facts_scanned += len({bucket})")
            rid = f"rid{index}"
            body.append(pad(depth) + f"for {rid} in {bucket}:")
            depth += 1
            if len(probes) > 1:
                for position, expr in probes:
                    column = column_local(pred, position)
                    body.append(pad(depth) +
                                f"if {column}[{rid}] != {expr}:")
                    body.append(pad(depth + 1) + "continue")
            for position, slot in step.outs:
                column = column_local(pred, position)
                if slot in bound:
                    body.append(pad(depth) +
                                f"if {column}[{rid}] != r{slot}:")
                    body.append(pad(depth + 1) + "continue")
                else:
                    body.append(pad(depth) + f"r{slot} = {column}[{rid}]")
                    bound.add(slot)
            emit(index + 1, depth)
        elif kind == _NEG:
            exprs = [f"r{value}" if is_slot else soft_const(value)
                     for is_slot, value in step.args]
            body.append(pad(depth) + "stats.negation_checks += 1")
            body.append(pad(depth) + f"if {_tuple_expr(exprs)} not in "
                        f"{rows_local(step.pred)}:")
            emit(index + 1, depth + 1)
        elif kind == _CMP:
            (left_slot, left), (right_slot, right) = step.args
            body.append(pad(depth) + "stats.comparisons_evaluated += 1")
            if step.op in ("=", "!="):
                if not left_slot and not right_slot:
                    # Two constants: decided here, at compile time.
                    if compare_values(step.op, left, right):
                        emit(index + 1, depth)
                    return
                lhs = f"r{left}" if left_slot else soft_const(left)
                rhs = f"r{right}" if right_slot else soft_const(right)
                operator = "==" if step.op == "=" else "!="
                body.append(pad(depth) + f"if {lhs} {operator} {rhs}:")
                emit(index + 1, depth + 1)
            else:
                # Ordering needs the original values back.
                uses_values = True
                lhs = f"values[r{left}]" if left_slot else raw_const(left)
                rhs = f"values[r{right}]" if right_slot else raw_const(right)
                body.append(pad(depth) +
                            f"if compare_values({step.op!r}, {lhs}, {rhs}):")
                emit(index + 1, depth + 1)
        else:  # _BIND
            is_slot, source = step.source
            value = f"r{source}" if is_slot else intern_const(source)
            body.append(pad(depth) + f"r{step.slot} = {value}")
            bound.add(step.slot)
            emit(index + 1, depth)

    emit(0, 1)

    prologue = [
        "def _run(database, init, limit, stats):",
        "    out = []",
        "    append = out.append",
        "    sym = database.symbols",
    ]
    if uses_values:
        prologue.append("    values = sym.values")
    if soft_lines:
        prologue.append("    code_of = sym.code")
    if intern_lines:
        prologue.append("    intern = sym.intern")
    for pred, name in rel_names.items():
        prologue.append(f"    {name} = database.relation({pred!r})")
    for line in accessor_lines.values():
        prologue.append("    " + line)
    for line in soft_lines:
        prologue.append("    " + line)
    for line in intern_lines:
        prologue.append("    " + line)
    for slot in bound_slots:
        prologue.append(f"    r{slot} = init[{slot}]")
    prologue.append("    jt = 0")
    epilogue = [
        "    stats.join_tuples += jt",
        "    return out",
    ]
    source = "\n".join(prologue + body + epilogue) + "\n"

    # Structurally identical plans generate byte-identical source (the
    # constants live in the namespace as K0..Kn, not in the text), and
    # the planner rebuilds the same structures over and over — every
    # constraint added invalidates its cache, and cardinality-signature
    # growth replaces plans wholesale.  Caching the code object makes a
    # re-lowering cost one exec of a def statement instead of a parse.
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
            _CODE_CACHE.clear()
        code = compile(source, "<compiled-plan>", "exec")
        _CODE_CACHE[source] = code
    namespace: Dict[str, object] = {"compare_values": compare_values}
    for key, value in enumerate(consts):
        namespace[f"K{key}"] = value
    exec(code, namespace)
    runner = namespace["_run"]

    pos_spec: List[Tuple[int, str, Tuple[Tuple[bool, object], ...]]] = []
    neg_spec: List[Tuple[int, str, Tuple[Tuple[bool, object], ...]]] = []
    for step in steps:
        if step.kind == _SCAN:
            argspec: List[Tuple[bool, object]] = [(False, None)] * step.arity
            for position, value in step.fixed:
                argspec[position] = (False, value)
            for position, slot in step.bound:
                argspec[position] = (True, slot)
            for position, slot in step.outs:
                argspec[position] = (True, slot)
            pos_spec.append((step.body_index, step.pred, tuple(argspec)))
        elif step.kind == _NEG:
            neg_spec.append((step.body_index, step.pred, step.args))
    pos_spec.sort(key=lambda item: item[0])
    neg_spec.sort(key=lambda item: item[0])

    return CompiledPlan(
        runner=runner,
        bound_slots=frozenset(bound_slots),
        var_items=tuple(plan.var_slots.items()),
        pos_spec=tuple(pos_spec),
        neg_spec=tuple(neg_spec),
        source=source,
    )


# -- execution wrappers ------------------------------------------------------


def _initial_codes(plan: JoinPlan, database,
                   theta: Optional[Substitution],
                   bound_slots) -> List[Optional[int]]:
    """Seed registers (codes) from *theta*.

    *theta* must ground exactly the variables the plan was compiled as
    bound for: the closure would overwrite an unpromised binding instead
    of filtering on it, and read an unseeded promised one as ``None``.
    Every caller plans with the bindings of the seed it then passes, so
    a mismatch is a bug and raises.  Seed values are hard-interned: a
    brand-new constant simply probes empty buckets.
    """
    init: List[Optional[int]] = [None] * plan.nslots
    if theta:
        intern = database.symbols.intern
        get = theta.get
        for var, slot in plan.var_slots.items():
            value = get(var, _ABSENT)
            if value is _ABSENT:
                continue
            if isinstance(value, Variable):
                # Follow chained bindings ({X: Y, Y: 1}) the slow way.
                value = substitute_term(value, theta)
                if isinstance(value, Variable):
                    continue
            if slot not in bound_slots:
                raise PlanningError(
                    f"seed grounds {var!r}, which the plan was not "
                    f"compiled as bound for")
            init[slot] = intern(value)
    for slot in bound_slots:
        if init[slot] is None:
            raise PlanningError(
                "seed leaves a variable unbound that the plan was "
                "compiled as bound for")
    return init


def run_codes(plan: JoinPlan, database,
              theta: Optional[Substitution] = None, limit: int = 0
              ) -> Tuple[CompiledPlan, List[Tuple[int, ...]]]:
    """The plan's compiled form and its raw register tuples for *theta*
    (at most *limit* of them when non-zero)."""
    compiled = compiled_for(plan, database)
    init = _initial_codes(plan, database, theta, compiled.bound_slots)
    return compiled, compiled.runner(database, init, limit, database.stats)


def run_substitutions(plan: JoinPlan, database,
                      theta: Optional[Substitution] = None
                      ) -> List[Substitution]:
    """Decoded substitutions satisfying the plan's body."""
    compiled, rows = run_codes(plan, database, theta)
    values = database.symbols.values
    var_items = compiled.var_items
    out: List[Substitution] = []
    for regs in rows:
        result: Substitution = dict(theta) if theta else {}
        for var, slot in var_items:
            result[var] = values[regs[slot]]
        out.append(result)
    return out


def probe(plan: JoinPlan, database,
          theta: Optional[Substitution] = None) -> bool:
    """Does at least one row satisfy the body?"""
    return bool(run_codes(plan, database, theta, limit=1)[1])


def _decode_atoms(spec, regs, values) -> Tuple[Atom, ...]:
    return tuple(
        Atom(pred, tuple(values[regs[arg]] if is_slot else arg
                         for is_slot, arg in argspec))
        for _body_index, pred, argspec in spec
    )


def _head_spec(plan: JoinPlan, head: Atom) -> Tuple[Tuple[bool, object], ...]:
    spec: List[Tuple[bool, object]] = []
    for arg in head.args:
        if isinstance(arg, Variable):
            slot = plan.var_slots.get(arg)
            if slot is None:
                # Rule construction checks range restriction, so only a
                # plan built for some other body can get here.
                raise PlanningError(
                    f"head variable {arg!r} of {head!r} is not bound by "
                    f"the planned body")
            spec.append((True, slot))
        else:
            spec.append((False, arg))
    return tuple(spec)


def run_rule_derivations(plan: JoinPlan, database, head: Atom,
                         theta: Optional[Substitution] = None
                         ) -> List[Tuple[Atom, Tuple[Atom, ...],
                                         Tuple[Atom, ...]]]:
    """(head fact, positive supports, negative supports) triples.

    The saturation path: the head atom is decoded straight from the
    registers — no substitution dict is ever built.
    """
    compiled, rows = run_codes(plan, database, theta)
    head_spec = compiled.head_specs.get(head)
    if head_spec is None:
        head_spec = compiled.head_specs[head] = _head_spec(plan, head)
    values = database.symbols.values
    pos_spec = compiled.pos_spec
    neg_spec = compiled.neg_spec
    pred = head.pred
    out = []
    for regs in rows:
        fact = Atom(pred, tuple(values[regs[arg]] if is_slot else arg
                                for is_slot, arg in head_spec))
        out.append((fact,
                    _decode_atoms(pos_spec, regs, values),
                    _decode_atoms(neg_spec, regs, values)))
    return out
