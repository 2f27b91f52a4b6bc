"""Exception hierarchy for the repro schema-management library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  Subsystems
raise more specific subclasses:

* the deductive-database substrate raises :class:`DatalogError` types,
* the GOM schema front end raises :class:`AnalyzerError` types,
* the runtime system raises :class:`RuntimeSystemError` types, and
* the consistency control raises :class:`SessionError` types.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by this library."""


# ---------------------------------------------------------------------------
# Deductive database substrate
# ---------------------------------------------------------------------------


class DatalogError(ReproError):
    """Base class for errors in the deductive-database substrate."""


class ArityError(DatalogError):
    """An atom was built with the wrong number of arguments."""


class UnknownPredicateError(DatalogError):
    """A rule, constraint, or fact refers to an undeclared predicate."""


class DuplicatePredicateError(DatalogError):
    """A predicate was declared twice with conflicting definitions."""


class NotGroundError(DatalogError):
    """A fact (ground atom) was required but the atom contains variables."""


class StratificationError(DatalogError):
    """The rule set uses negation through recursion and cannot be stratified."""


class RangeRestrictionError(DatalogError):
    """A rule or constraint is not range restricted (unsafe variables)."""


class ConstraintSyntaxError(DatalogError):
    """A constraint formula is malformed."""


class DatalogSyntaxError(DatalogError):
    """Textual Datalog (facts / rules / constraints) failed to parse."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class RepairGenerationError(DatalogError):
    """The repair generator could not produce repairs for a violation."""


class ReadOnlySnapshotError(DatalogError):
    """A mutation was attempted on a published snapshot database."""


class PlanningError(DatalogError, ValueError):
    """A conjunctive body cannot be compiled into a join plan.

    Raised when no evaluation order can bind the variables of a negated
    literal or builtin comparison — the planner's analogue of the
    evaluation-time "unbound side" errors, surfaced at compile time.
    Derives from :class:`ValueError` for backward compatibility with the
    pre-planner engine, which raised ``ValueError`` lazily.
    """


# ---------------------------------------------------------------------------
# GOM model
# ---------------------------------------------------------------------------


class GomModelError(ReproError):
    """Base class for errors in the GOM schema model."""


class UnknownFeatureError(GomModelError):
    """A feature name passed to the model assembler is not registered."""


class DuplicateFeatureError(GomModelError):
    """A feature module was registered twice under the same name."""


# ---------------------------------------------------------------------------
# Analyzer (front end)
# ---------------------------------------------------------------------------


class AnalyzerError(ReproError):
    """Base class for Analyzer errors."""


class GomSyntaxError(AnalyzerError):
    """GOM schema-definition source failed to lex or parse."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class NameResolutionError(AnalyzerError):
    """A name used in a schema definition could not be resolved."""


class NameConflictError(AnalyzerError):
    """Two visible schema components of the same kind share a name."""


class EvolutionError(AnalyzerError):
    """A primitive or complex schema-evolution operation cannot be applied."""


class UnknownOperatorError(AnalyzerError):
    """A complex evolution operator name is not registered."""


# ---------------------------------------------------------------------------
# Runtime system
# ---------------------------------------------------------------------------


class RuntimeSystemError(ReproError):
    """Base class for runtime-system errors."""


class UnknownObjectError(RuntimeSystemError):
    """An object identifier does not denote a stored object."""


class UnknownSlotError(RuntimeSystemError):
    """An attribute access found no slot and no fashion masking for it."""


class MethodLookupError(RuntimeSystemError):
    """Dynamic binding found no applicable operation implementation."""


class GomTypeError(RuntimeSystemError):
    """A runtime value does not conform to the statically declared type."""


class InterpreterError(RuntimeSystemError):
    """Evaluation of interpreted GOM code failed."""


class ConversionError(RuntimeSystemError):
    """An object conversion routine could not be executed."""


# ---------------------------------------------------------------------------
# Consistency control
# ---------------------------------------------------------------------------


class SessionError(ReproError):
    """Base class for evolution-session errors."""


class MissingRepairInputError(SessionError):
    """A repair was applied without a value for one of its placeholders."""


class SessionAlreadyActiveError(SessionError):
    """BES was issued while another evolution session is open."""


class SessionClosedError(SessionError):
    """An operation was attempted on an already-ended session."""


class InconsistentSchemaError(SessionError):
    """EES found violations and the caller requested strict mode."""

    def __init__(self, violations) -> None:
        count = len(violations)
        super().__init__(f"schema evolution session left {count} violation(s)")
        self.violations = list(violations)
