"""The semantic scope tracker: well-scoped histories by construction.

ISLa pairs a grammar with semantic constraints so generated inputs are
valid where the grammar alone cannot guarantee it.  Our equivalent is a
symbolic mirror of the schema state — schemas, types, attributes,
declarations, subtype / subschema / version edges, publics, imports —
maintained by the generator as it emits ops.  Productions consult it
through guards ("is there a type with an attribute to rename?") and
parameter pickers, so *valid-bias* ops reference only entities that will
exist at replay time, while *hostile* productions consult it to violate
scoping deliberately (dangling ids, duplicate names, cycles).

The tracker is intentionally approximate in one place: sessions that end
in a cure-or-rollback decision are resolved only at replay time, so the
generator assumes ``auto`` sessions commit and reverts the scope for
planned rollbacks.  When the assumption misses (a cure deleted a fact,
a hostile session rolled back), later ops referencing the lost entity
degrade into deterministic no-ops at replay — the replayer skips ops
whose references do not resolve, identically on every manager variant.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

BUILTIN_DOMAINS = ("builtin:int", "builtin:float", "builtin:string")


@dataclass
class TypeScope:
    name: str
    schema: str  # schema handle
    attrs: Dict[str, str] = field(default_factory=dict)  # name -> domain handle
    supers: Set[str] = field(default_factory=set)        # type handles
    decls: Set[str] = field(default_factory=set)         # decl handles
    enum_values: Tuple[str, ...] = ()
    #: True for types whose member declarations exist at replay time but
    #: have no symbolic handles (copies made by complex operators, which
    #: do not expose the created decl ids) — handle-addressed productions
    #: must not reach into them.
    opaque: bool = False

    @property
    def is_enum(self) -> bool:
        return bool(self.enum_values)


@dataclass
class DeclScope:
    type: str  # owning type handle
    name: str
    args: List[str] = field(default_factory=list)  # domain handles
    result: str = "builtin:int"
    has_code: bool = False
    refines: Optional[str] = None
    #: Decl handles whose generated code calls this operation — deleting
    #: a called declaration would dangle their ``CodeReqDecl`` facts.
    callers: Set[str] = field(default_factory=set)


@dataclass
class SchemaScope:
    name: str
    types: Set[str] = field(default_factory=set)
    parent: Optional[str] = None
    children: Set[str] = field(default_factory=set)
    imports: Set[str] = field(default_factory=set)
    publics: Set[Tuple[str, str]] = field(default_factory=set)  # (kind, name)
    vars: Dict[str, str] = field(default_factory=dict)          # name -> domain


class ScopeTracker:
    """Symbolic schema state, keyed by the history's handles."""

    def __init__(self) -> None:
        self.schemas: Dict[str, SchemaScope] = {}
        self.types: Dict[str, TypeScope] = {}
        self.decls: Dict[str, DeclScope] = {}
        self.type_versions: Set[Tuple[str, str]] = set()
        self.schema_versions: Set[Tuple[str, str]] = set()
        self.fashioned: Set[Tuple[str, str]] = set()  # (subject, target)
        #: (kind, name) pairs referenced by publics/renames — renaming or
        #: moving such a component would break namespace resolution.
        self.namespace_uses: Set[Tuple[str, str]] = set()
        #: Object handle -> type handle.  Instantiated types pin their
        #: inherited layout: schema changes over the instance cone would
        #: violate constraint (*) at EES unless paired with a cure, so
        #: valid productions either avoid the cone or emit the cure.
        self.objects: Dict[str, str] = {}

    # -- session bracketing ---------------------------------------------------

    def snapshot(self) -> "ScopeTracker":
        return copy.deepcopy(self)

    def restore(self, snap: "ScopeTracker") -> None:
        self.schemas = snap.schemas
        self.types = snap.types
        self.decls = snap.decls
        self.type_versions = snap.type_versions
        self.schema_versions = snap.schema_versions
        self.fashioned = snap.fashioned
        self.namespace_uses = snap.namespace_uses
        self.objects = snap.objects

    # -- mutation (mirrors the ops the generator emits) -----------------------

    def add_schema(self, handle: str, name: str) -> None:
        self.schemas[handle] = SchemaScope(name=name)

    def add_type(self, handle: str, schema: str, name: str,
                 supers: Tuple[str, ...] = (),
                 enum_values: Tuple[str, ...] = ()) -> None:
        self.types[handle] = TypeScope(name=name, schema=schema,
                                       supers=set(supers),
                                       enum_values=enum_values)
        self.schemas[schema].types.add(handle)

    def drop_type(self, handle: str) -> None:
        scope = self.types.pop(handle, None)
        if scope is not None and scope.schema in self.schemas:
            self.schemas[scope.schema].types.discard(handle)
        for decl in list(scope.decls if scope else ()):
            self.decls.pop(decl, None)
        for other in self.types.values():
            other.supers.discard(handle)

    def add_decl(self, handle: str, type_handle: str, name: str,
                 args: List[str], result: str, has_code: bool,
                 refines: Optional[str] = None) -> None:
        self.decls[handle] = DeclScope(type=type_handle, name=name,
                                       args=list(args), result=result,
                                       has_code=has_code, refines=refines)
        self.types[type_handle].decls.add(handle)

    def drop_decl(self, handle: str) -> None:
        scope = self.decls.pop(handle, None)
        if scope is not None and scope.type in self.types:
            self.types[scope.type].decls.discard(handle)

    def add_object(self, handle: str, type_handle: str) -> None:
        self.objects[handle] = type_handle

    def drop_object(self, handle: str) -> None:
        self.objects.pop(handle, None)

    # -- derived views (deterministically ordered) ----------------------------

    def schema_handles(self) -> List[str]:
        return sorted(self.schemas)

    def type_handles(self, enums: bool = False) -> List[str]:
        return sorted(h for h, t in self.types.items()
                      if enums or not t.is_enum)

    def decl_handles(self) -> List[str]:
        return sorted(self.decls)

    def ancestors(self, type_handle: str) -> Set[str]:
        """Transitive supertypes (symbolic SubTypRel_t)."""
        seen: Set[str] = set()
        stack = [type_handle]
        while stack:
            current = stack.pop()
            for sup in self.types.get(current, TypeScope("", "")).supers:
                if sup not in seen:
                    seen.add(sup)
                    stack.append(sup)
        return seen

    def inherited_attrs(self, type_handle: str) -> Dict[str, str]:
        """name -> domain over the type and its transitive supertypes."""
        attrs: Dict[str, str] = {}
        for handle in sorted(self.ancestors(type_handle) | {type_handle}):
            scope = self.types.get(handle)
            if scope is not None:
                attrs.update(scope.attrs)
        return attrs

    def inherited_decls(self, type_handle: str) -> List[str]:
        handles: Set[str] = set()
        for handle in self.ancestors(type_handle) | {type_handle}:
            scope = self.types.get(handle)
            if scope is not None:
                handles |= scope.decls
        return sorted(handles)

    def descendants(self, type_handle: str) -> Set[str]:
        """Transitive subtypes (inverse of :meth:`ancestors`)."""
        return {h for h in self.types if type_handle in self.ancestors(h)}

    def subschema_tree(self, schema: str) -> Set[str]:
        """The schema plus its transitive subschemata."""
        seen = {schema}
        stack = [schema]
        while stack:
            current = self.schemas.get(stack.pop())
            for child in (current.children if current else ()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def schema_version_reachable(self, old: str, new: str) -> bool:
        """Is there an evolves_to_S path old -> new (symbolically)?"""
        seen = {old}
        stack = [old]
        while stack:
            current = stack.pop()
            for edge_old, edge_new in self.schema_versions:
                if edge_old == current and edge_new not in seen:
                    if edge_new == new:
                        return True
                    seen.add(edge_new)
                    stack.append(edge_new)
        return False

    def object_handles(self) -> List[str]:
        return sorted(self.objects)

    def instantiated_types(self) -> Set[str]:
        """Type handles that currently have live (symbolic) objects."""
        return set(self.objects.values())

    def instance_cone(self) -> Set[str]:
        """Types whose layout live objects depend on: every instantiated
        type plus its transitive supertypes.  A type is in the cone iff
        it (or a descendant) has instances — so both "grow this type"
        and "edit this type's supertype edges" guards use the same set.
        """
        cone: Set[str] = set()
        for handle in self.instantiated_types():
            cone.add(handle)
            cone |= self.ancestors(handle)
        return cone

    def fashion_cone(self) -> Set[str]:
        """Type handles whose inherited attrs/decls feed some fashion
        target's completeness constraints — growing them would demand
        new imitations, so valid productions avoid the cone."""
        cone: Set[str] = set()
        for _subject, target in self.fashioned:
            cone.add(target)
            cone |= self.ancestors(target)
        return cone

    def type_referenced(self, type_handle: str) -> bool:
        """Anything in scope that a restrict-delete would trip over (or
        that would dangle after the delete)."""
        for handle, scope in self.types.items():
            if handle == type_handle:
                continue
            if type_handle in scope.supers:
                return True
            if type_handle in scope.attrs.values():
                return True
        scope = self.types.get(type_handle)
        if scope is not None and scope.supers:
            return True
        for decl in self.decls.values():
            if decl.result == type_handle or type_handle in decl.args:
                return True
        for pair in self.type_versions | self.fashioned:
            if type_handle in pair:
                return True
        for schema in self.schemas.values():
            if type_handle in schema.vars.values():
                return True
        if scope is not None and ("type", scope.name) in self.namespace_uses:
            return True
        return False

    def pick(self, rng: random.Random, items: List[str]) -> Optional[str]:
        """Deterministic choice from an already-sorted list."""
        if not items:
            return None
        return items[rng.randrange(len(items))]
