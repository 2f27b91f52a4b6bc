"""Object conversion routines (§3.5): the eager cures.

"The implementation of the conversion routines must be present in the
Runtime System.  These conversion routines must be able to, e.g., add or
delete slots."  A ``+Slot`` repair detected by the Consistency Control
is *executed* by :meth:`ConversionRoutines.add_slot`, which updates the
object-base model and fills the new slot of every instance.  The value
source is exactly the paper's three options: "providing a default value,
by asking the user for every instance, or by providing an operation
that — called on the old instances — provides a value for the new slot".

There is one conversion path.  An eager cure is the lazy cure of
:mod:`repro.runtime.migration` — the same step registration, ``Slot``
bookkeeping and convert-on-touch — with every instance of the subtype
cone converted at once, inside the cure's session.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

from repro.errors import ConversionError
from repro.datalog.terms import Atom
from repro.gom.ids import Id
from repro.gom.model import GomDatabase
from repro.control.session import EvolutionSession
from repro.runtime.migration import SlotAction
from repro.runtime.objects import GomObject, RuntimeSystem

#: A value source: a constant default, a per-object callable (the
#: "asking the user for every instance" channel), or the name of an
#: operation to call on each old instance.
ValueSource = Union[object, Callable[[GomObject], object], str]


class ConversionRoutines:
    """The cures the runtime can execute on physical representations.

    Every cure runs in :meth:`RuntimeSystem.bracket`'s session and is
    transactional with respect to it: conversions record one undo entry
    per converted object, so a caller-owned session that rolls back
    restores the object base together with the schema — objects are
    never left converted against a schema change that never happened.
    """

    def __init__(self, runtime: RuntimeSystem) -> None:
        self.runtime = runtime
        self.model: GomDatabase = runtime.model

    # -- adding a slot (the paper's fuelType example) ----------------------------

    def add_slot(self, tid: Id, attr: str, source: ValueSource,
                 session: Optional[EvolutionSession] = None,
                 value_is_operation: bool = False,
                 overwrite: bool = False) -> int:
        """Add a slot for *attr* to the representations of *tid*'s
        subtype cone and fill it on every instance.  Returns the number
        of converted objects.

        The attribute must already exist in the schema (the schema change
        precedes the cure).  *source* is a constant, a callable
        ``object -> value``, or — with *value_is_operation* — the name of
        an operation evaluated on each instance.

        Instances that already hold a value for *attr* (e.g. filled by a
        masking handler's materialization, or written mid-session) keep
        it; pass ``overwrite=True`` to clobber them with *source*.
        """
        tid = self.runtime._resolve_type(tid)
        if not self.runtime.migrations._phreps_in_cone(tid):
            raise ConversionError(
                f"type {self.model.type_name(tid)!r} has no instances, "
                f"nothing to convert")
        return self._convert(tid, (SlotAction(
            "add", attr, source, value_is_operation, overwrite),), session)

    # -- the masking cure (ENCORE-style, Skarra & Zdonik) ----------------------------

    def mask_with_handler(self, tid: Id, attr: str, reader: ValueSource,
                          writer=None, materialize: bool = False,
                          session: Optional[EvolutionSession] = None) -> None:
        """Cure a missing-slot inconsistency by *masking*, not converting.

        Inserts the ``Slot`` fact (so constraint (*) holds) but touches
        **no object**: reads of the missing value run the *reader*
        (a constant or a per-object callable); writes run the optional
        *writer* or store directly.  With ``materialize=True`` the first
        read writes the value back — lazy conversion, amortizing the
        paper's "no time for reorganization" concern.
        """
        attrs = dict(self.model.attributes(tid, inherited=True))
        if attr not in attrs:
            raise ConversionError(
                f"type {self.model.type_name(tid)!r} has no attribute "
                f"{attr!r} — add the attribute before masking")
        runtime = self.runtime
        registry = runtime.handlers
        with runtime.bracket(session) as active:
            clid = self.model.phrep_of(tid)
            if clid is not None:
                domain_rep = runtime._phrep_for_domain(active, attrs[attr])
                slot_fact = Atom("Slot", (clid, attr, domain_rep))
                if not self.model.db.edb.contains(slot_fact):
                    active.add(slot_fact)
            # Defer the layout fact regardless: a representation minted
            # later (the type used as an attribute domain before it has
            # instances, or re-minted after the last instance died) must
            # start with the masked slot, or it violates constraint (*).
            previous_deferred = runtime.defer_masked_slot(
                tid, attr, attrs[attr])
            previous_entry = registry.entry(tid, attr)
            active.record_undo(
                lambda: registry.restore(tid, attr, previous_entry))
            active.record_undo(
                lambda: runtime.restore_deferred_slot(tid, attr,
                                                      previous_deferred))
            read_handler = reader if callable(reader) else (
                lambda obj, value=reader: value)
            registry.register_read(tid, attr, read_handler,
                                   materialize=materialize)
            if writer is not None:
                registry.register_write(tid, attr, writer)

    # -- deleting a slot -------------------------------------------------------------

    def delete_slot(self, tid: Id, attr: str,
                    session: Optional[EvolutionSession] = None) -> int:
        """Remove a slot from the representations of *tid*'s subtype
        cone, drop the value from every instance, and unregister any
        masking handlers for the attribute (a stale handler would
        resurrect values of the deleted slot).  Returns the number of
        objects that held a value."""
        return self._convert(tid, (SlotAction("drop", attr),), session)

    # -- syncing after repairs ----------------------------------------------------------

    def fill_new_slots(self, tid: Id,
                       sources: Dict[str, ValueSource],
                       session: Optional[EvolutionSession] = None) -> int:
        """After a ``+Slot`` repair was applied at the model level, fill
        the slot values of every instance (protocol step 9: 'the
        Consistency Control initiates the execution of the chosen repair
        by the … Runtime System').  Returns the number of slots filled.

        All *sources* convert as one step.  Like every cure it joins the
        given (or model-active) session, so a later rollback also
        unfills the slots; a session it opens itself commits — and
        reaches the durable evolution log — as one atomic session.
        """
        return self._convert(tid, tuple(
            SlotAction("add", attr, source)
            for attr, source in sources.items()), session)

    def _convert(self, tid: Id, actions: Tuple[SlotAction, ...],
                 session: Optional[EvolutionSession]) -> int:
        """Register *actions* as a lazy cure, then convert its cone now."""
        runtime = self.runtime
        tid = runtime._resolve_type(tid)
        with runtime.bracket(session) as active:
            runtime.migrations._register_cure(active, tid, actions)
            return runtime.migrations._convert_cone(tid, actions)

    def delete_all_instances(self, tid: Id,
                             session: Optional[EvolutionSession] = None
                             ) -> int:
        """The paper's "brute force" cure: delete all instances of the
        type (what the ``-PhRep`` repair means)."""
        objects = self.runtime.objects_of(tid)
        with self.runtime.bracket(session) as active:
            for obj in objects:
                self.runtime.delete_object(obj.oid, session=active)
        return len(objects)
