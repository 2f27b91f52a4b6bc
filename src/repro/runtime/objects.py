"""The object store and the object-base model maintenance.

Objects are instances of types; all instances of one type share one
physical representation (``PhRep``) whose layout is a set of ``Slot``
facts.  The store maintains both through the Consistency Control:
creating the first instance of a type adds its ``PhRep`` and ``Slot``
facts, deleting the last instance removes them — so the paper's
invariant "a fact is present in the extension of PhRep iff there exists
at least one object of the type" holds by construction.

Attribute access goes through :meth:`RuntimeSystem.get_attr` /
:meth:`set_attr`, which fall back to **fashion** masking when the object
is an old type version being used as a newer one.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import (
    GomTypeError,
    RuntimeSystemError,
    UnknownObjectError,
    UnknownSlotError,
)
from repro.datalog.terms import Atom
from repro.gom.builtins import value_conforms
from repro.gom.ids import Id
from repro.gom.model import GomDatabase
from repro.control.session import EvolutionSession


@dataclass
class GomObject:
    """One stored object: identity, type, and slot values.

    Slot values are built-in scalars, enum value names, or the ``oid`` of
    another stored object.
    """

    oid: Id
    tid: Id
    slots: Dict[str, object] = field(default_factory=dict)
    #: Migration version stamped at creation; when the type's current
    #: version moves past it the object is *stale* and converts on
    #: first touch (see :mod:`repro.runtime.migration`).
    schema_version: int = 0

    def __repr__(self) -> str:
        return f"<{self.oid} : {self.tid}>"


class RuntimeSystem:
    """Object management on top of a :class:`GomDatabase`."""

    def __init__(self, model: GomDatabase) -> None:
        self.model = model
        self._objects: Dict[Id, GomObject] = {}
        self._instances_by_type: Dict[Id, set] = {}
        from repro.runtime.interpreter import Interpreter
        from repro.runtime.explain import runtime_explainer
        from repro.runtime.handlers import HandlerRegistry
        from repro.runtime.migration import MigrationEngine
        self.interpreter = Interpreter(self)
        self.explainer = runtime_explainer(self.model, self)
        self.handlers = HandlerRegistry()
        self.migrations = MigrationEngine(self)
        #: Masked slots deferred until the type's representation exists:
        #: (tid -> attr -> domain).  ``mask_with_handler`` on a type with
        #: no PhRep records the layout fact here, and
        #: :meth:`_phrep_for_domain` inserts it the moment a bare
        #: representation is minted — otherwise that representation
        #: would start out violating constraint (*).
        self._deferred_slots: Dict[Id, Dict[str, Id]] = {}

    # -- session plumbing ------------------------------------------------------

    @contextmanager
    def bracket(self, session: Optional[EvolutionSession] = None
                ) -> Iterator[EvolutionSession]:
        """The one session bracket of runtime operations and cures.

        Yields the given session, else the model's open one, else a
        short-lived session of its own.  A session the bracket opened
        commits when the block ends and rolls back on any exception, a
        failed commit's included, so no failure leaves it open; a joined
        session is the caller's to end.
        """
        if session is None:
            active = getattr(self.model, "active_session", None)
            if active is not None and active.active:
                session = active
        if session is not None:
            yield session
            return
        owned = EvolutionSession(self.model)
        owned.register_explainer(self.explainer)
        try:
            yield owned
            owned.commit()
        except BaseException:
            if owned.active:
                owned.rollback()
            raise

    # -- object lifecycle ---------------------------------------------------------

    def objects_of(self, tid: Id, include_subtypes: bool = False
                   ) -> List[GomObject]:
        oids = set(self._instances_by_type.get(tid, ()))
        if include_subtypes:
            for other_tid, members in self._instances_by_type.items():
                if self.model.is_subtype(other_tid, tid):
                    oids.update(members)
        return [self._objects[oid] for oid in sorted(oids)]

    def count_objects(self) -> int:
        return len(self._objects)

    def get(self, oid: Id) -> GomObject:
        try:
            return self._objects[oid]
        except KeyError:
            raise UnknownObjectError(f"no object {oid!r}") from None

    def exists(self, oid: Id) -> bool:
        return oid in self._objects

    def create_object(self, type_ref, values: Dict[str, object],
                      session: Optional[EvolutionSession] = None
                      ) -> GomObject:
        """Instantiate a type.

        *type_ref* is a type id or a type name; *values* must provide a
        conforming value for every attribute, including inherited ones
        (GOM is strongly typed — there are no half-initialized objects).
        """
        tid = self._resolve_type(type_ref)
        attrs = dict(self.model.attributes(tid, inherited=True))
        missing = sorted(set(attrs) - set(values))
        extra = sorted(set(values) - set(attrs))
        if missing:
            raise GomTypeError(
                f"missing value(s) for attribute(s) {', '.join(missing)} "
                f"of type {self.model.type_name(tid)!r}")
        if extra:
            raise GomTypeError(
                f"unknown attribute(s) {', '.join(extra)} for type "
                f"{self.model.type_name(tid)!r}")
        for name, value in values.items():
            self._check_conforms(attrs[name], value, name)
        with self.bracket(session) as active:
            self._ensure_phrep(active, tid, attrs)
            oid = self.model.ids.object()
            obj = GomObject(oid=oid, tid=tid, slots=dict(values),
                            schema_version=self.migrations.version_of(tid))
            self._objects[oid] = obj
            self._instances_by_type.setdefault(tid, set()).add(oid)
            # The PhRep/Slot facts roll back via the EDB snapshot; the
            # object store needs explicit compensation.
            active.record_undo(lambda: self._discard_object(obj))
        return obj

    def _discard_object(self, obj: GomObject) -> None:
        """Remove *obj* from the store (rollback of a create)."""
        self._objects.pop(obj.oid, None)
        members = self._instances_by_type.get(obj.tid)
        if members is not None:
            members.discard(obj.oid)
            if not members:
                del self._instances_by_type[obj.tid]

    def _restore_object(self, obj: GomObject) -> None:
        """Re-insert *obj* into the store (rollback of a delete)."""
        self._objects[obj.oid] = obj
        self._instances_by_type.setdefault(obj.tid, set()).add(obj.oid)

    def delete_object(self, oid: Id,
                      session: Optional[EvolutionSession] = None) -> None:
        """Delete an object; the last instance retracts the PhRep/Slots."""
        obj = self.get(oid)
        with self.bracket(session) as active:
            del self._objects[oid]
            active.record_undo(lambda: self._restore_object(obj))
            members = self._instances_by_type.get(obj.tid)
            if members is not None:
                members.discard(oid)
                if not members:
                    del self._instances_by_type[obj.tid]
                    self._retract_phrep(active, obj.tid)

    def _resolve_type(self, type_ref) -> Id:
        if isinstance(type_ref, Id):
            return type_ref
        tid = None
        if isinstance(type_ref, str):
            # Accept "Name" (searched across schemas) or "Name@Schema".
            if "@" in type_ref:
                name, schema_name = type_ref.split("@", 1)
                sid = self.model.schema_id(schema_name)
                if sid is not None:
                    tid = self.model.type_id(name, sid)
            else:
                tid = self.model.type_id(type_ref)
                if tid is None:
                    for fact in self.model.db.matching(
                            Atom("Type", (None, type_ref, None))):
                        tid = fact.args[0]
                        break
        if tid is None:
            raise RuntimeSystemError(f"cannot resolve type {type_ref!r}")
        return tid

    # -- PhRep / Slot maintenance ------------------------------------------------------

    def _ensure_phrep(self, session: EvolutionSession, tid: Id,
                      attrs: Dict[str, Id]) -> Id:
        existing = self.model.phrep_of(tid)
        if existing is not None:
            return existing
        clid = self.model.ids.phrep()
        additions = [Atom("PhRep", (clid, tid))]
        for name, domain in sorted(attrs.items()):
            domain_rep = self._phrep_for_domain(session, domain)
            additions.append(Atom("Slot", (clid, name, domain_rep)))
        session.modify(additions=additions)
        return clid

    def _phrep_for_domain(self, session: EvolutionSession,
                          domain: Id) -> Id:
        """The representation id slot values of this domain use.

        Built-in sorts have well-known representations; enum sorts get
        one on demand (their values always exist); object domains use the
        domain type's PhRep, which exists because a conforming value had
        to be created first — if none exists yet, the dangling reference
        is reported at EES by constraint (*)'s referential integrity.
        """
        existing = self.model.phrep_of(domain)
        if existing is not None:
            return existing
        if self.model.is_enum(domain):
            clid = self.model.ids.phrep()
            session.add(Atom("PhRep", (clid, domain)))
            return clid
        # Leave a dangling-but-checkable layout: create the domain rep
        # lazily so that instantiating the domain type later reuses it.
        clid = self.model.ids.phrep()
        session.add(Atom("PhRep", (clid, domain)))
        # A masked attribute recorded before this representation existed
        # must appear in its layout, or the new PhRep starts out
        # violating constraint (*).  The PhRep fact is added first so a
        # self-referential attribute domain resolves to this clid.
        for attr, attr_domain in sorted(
                self._deferred_slots.get(domain, {}).items()):
            domain_rep = self._phrep_for_domain(session, attr_domain)
            slot_fact = Atom("Slot", (clid, attr, domain_rep))
            if not self.model.db.edb.contains(slot_fact):
                session.add(slot_fact)
        return clid

    def _retract_phrep(self, session: EvolutionSession, tid: Id) -> None:
        clid = self.model.phrep_of(tid)
        if clid is None:
            return
        deletions = [Atom("PhRep", (clid, tid))]
        for fact in self.model.db.matching(Atom("Slot", (clid, None, None))):
            deletions.append(fact)
        session.modify(deletions=deletions)

    # -- undo-recording slot mutators -----------------------------------------------------

    def store_slot(self, obj: GomObject, attr: str, value: object) -> None:
        """Write a slot value, recording its inverse on the open session.

        The transactional write path of lazy materialization: when an
        evolution session is active on the model, the previous state of
        the slot (old value, or absence) is registered as an undo entry
        first, so a later rollback restores the object.  (A conversion
        records one undo entry per object instead; see
        :meth:`~repro.runtime.migration.MigrationEngine.touch`.)
        """
        self._record_slot_undo(obj, attr)
        obj.slots[attr] = value

    def _record_slot_undo(self, obj: GomObject, attr: str) -> None:
        active = getattr(self.model, "active_session", None)
        if active is None or not active.active:
            return
        if attr in obj.slots:
            old = obj.slots[attr]

            def undo(obj=obj, attr=attr, old=old):
                obj.slots[attr] = old
        else:
            def undo(obj=obj, attr=attr):
                obj.slots.pop(attr, None)
        active.record_undo(undo)

    # -- deferred masked slots ------------------------------------------------------------

    def defer_masked_slot(self, tid: Id, attr: str,
                          domain: Id) -> Optional[Id]:
        """Record a masked slot to insert when *tid*'s PhRep is minted.

        Returns the previously deferred domain (None if none) so the
        caller can undo the deferral on rollback via
        :meth:`restore_deferred_slot`.
        """
        previous = self._deferred_slots.get(tid, {}).get(attr)
        self._deferred_slots.setdefault(tid, {})[attr] = domain
        return previous

    def undefer_masked_slot(self, tid: Id, attr: str) -> Optional[Id]:
        """Drop (and return) the deferred domain for (tid, attr)."""
        slots = self._deferred_slots.get(tid)
        if not slots:
            return None
        previous = slots.pop(attr, None)
        if not slots:
            del self._deferred_slots[tid]
        return previous

    def restore_deferred_slot(self, tid: Id, attr: str,
                              previous: Optional[Id]) -> None:
        """Reinstate the deferral state captured before a change."""
        if previous is None:
            self.undefer_masked_slot(tid, attr)
        else:
            self._deferred_slots.setdefault(tid, {})[attr] = previous

    def deferred_masked_slots(self, tid: Id) -> Dict[str, Id]:
        """attr -> domain of the masked slots awaiting *tid*'s PhRep."""
        return dict(self._deferred_slots.get(tid, {}))

    # -- attribute access (with fashion masking) ------------------------------------------

    def get_attr(self, obj: GomObject, name: str) -> object:
        """Read an attribute.

        Resolution order: pending lazy migrations (convert-on-touch),
        stored slot value, then registered exception handlers (the
        ENCORE-style masking cure), then fashion masking (cross-version
        substitutability).
        """
        self.migrations.touch(obj)
        if name in obj.slots:
            return obj.slots[name]
        handled, value = self.handlers.read(obj, name,
                                            materializer=self.store_slot)
        if handled:
            return value
        masked = self._fashion_read(obj, name)
        if masked is not _MISSING:
            return masked
        raise UnknownSlotError(
            f"object {obj!r} has no slot {name!r} and no handler or "
            f"fashion masks it")

    def set_attr(self, obj: GomObject, name: str, value: object,
                 check: bool = True) -> None:
        """Write an attribute, redirecting through fashion when masked.

        Writing an attribute the type declares but the object has no
        slot value for yet (a freshly added attribute, mid-conversion)
        creates the slot value — this is how conversion routines fill
        new slots.
        """
        self.migrations.touch(obj)
        attrs = dict(self.model.attributes(obj.tid, inherited=True))
        if name in obj.slots or name in attrs:
            if check and name in attrs:
                self._check_conforms(attrs[name], value, name)
            obj.slots[name] = value
            return
        if self.handlers.write(obj, name, value):
            return
        if self._fashion_write(obj, name, value):
            return
        raise UnknownSlotError(
            f"object {obj!r} has no slot {name!r} and no handler or "
            f"fashion masks it")

    def _fashion_read(self, obj: GomObject, name: str) -> object:
        from repro.runtime.masking import fashion_attr_codes
        codes = fashion_attr_codes(self.model, obj.tid, name)
        if codes is None:
            return _MISSING
        read_code, _write_code = codes
        return self.interpreter.run_accessor(read_code, obj, ())

    def _fashion_write(self, obj: GomObject, name: str,
                       value: object) -> bool:
        from repro.runtime.masking import fashion_attr_codes
        codes = fashion_attr_codes(self.model, obj.tid, name)
        if codes is None:
            return False
        _read_code, write_code = codes
        self.interpreter.run_accessor(write_code, obj, (value,))
        return True

    # -- typing ---------------------------------------------------------------------------------

    def _check_conforms(self, domain: Id, value: object, name: str) -> None:
        if self.conforms(domain, value):
            return
        raise GomTypeError(
            f"value {value!r} does not conform to the domain "
            f"{self.model.type_name(domain) or domain!r} of attribute "
            f"{name!r}")

    def conforms(self, domain: Id, value: object) -> bool:
        """Value conformance, including fashion-extended substitutability."""
        domain_name = self.model.type_name(domain)
        if domain_name is not None and isinstance(domain, Id) \
                and domain.is_builtin:
            return value_conforms(domain_name, value)
        enum_values = self.model.enum_values(domain)
        if enum_values:
            return value in enum_values
        if isinstance(value, Id) and value.kind == "oid":
            if not self.exists(value):
                return False
            value_tid = self.get(value).tid
            if self.model.is_subtype(value_tid, domain):
                return True
            return self.model.db.contains(
                Atom("FashionType", (value_tid, domain))) \
                if self.model.db.is_base("FashionType") else False
        if isinstance(value, GomObject):
            return self.conforms(domain, value.oid)
        return False

    # -- operation calls -----------------------------------------------------------------------------

    def call(self, obj: GomObject, opname: str,
             args: Sequence[object] = ()) -> object:
        """Invoke an operation with dynamic binding (and fashion fallback)."""
        self.migrations.touch(obj)
        return self.interpreter.call(obj, opname, list(args))


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<missing>"


_MISSING = _Missing()
