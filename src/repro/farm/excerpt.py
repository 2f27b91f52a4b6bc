"""Schema excerpts on the wire, and foreign installation on arrival.

The export side is the Appendix-A
:func:`~repro.analyzer.namespaces.public_closure`, which decides *which*
facts a schema exports, shipped as :func:`~repro.gom.persistence.encode_atom`
rows: the WAL's op-record form, so ids round-trip the same way they do
in the WAL and the snapshot file.  The importing shard decodes the rows
with :func:`~repro.gom.persistence.decode_atom`.

The install side runs on the importing shard, inside an ordinary
WAL-logged evolution session: foreign facts land in the main EDB (the
visibility rules then treat them exactly like local ones), a
``ForeignSchema`` provenance fact records ``(home shard, home epoch)``,
and EES checks the merged extension.  Refreshing an already-installed
schema replaces its closure *conservatively*: facts also reachable
from another installed foreign schema's closure are protected from
removal, because two schemas homed on one shard may share base types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set

from repro.analyzer.namespaces import public_closure
from repro.datalog.terms import Atom
from repro.gom.ids import Id
from repro.gom.persistence import encode_atom

__all__ = ["ForeignInstallPlan", "install_foreign_schema",
           "plan_foreign_install", "schema_excerpt"]


def schema_excerpt(model, sid: Id) -> List[List[object]]:
    """The public closure of *sid* as JSON-safe ``encode_atom`` rows."""
    return [encode_atom(atom) for atom in public_closure(model, sid)]


# -- foreign installation ----------------------------------------------------


@dataclass(frozen=True)
class ForeignInstallPlan:
    """The +/- delta installing (or refreshing) one foreign schema."""

    sid: Id
    additions: List[Atom]
    deletions: List[Atom]
    protected: int


def plan_foreign_install(model, sid: Id, atoms: Sequence[Atom],
                         home_shard: int, home_epoch: int
                         ) -> ForeignInstallPlan:
    """Compute the session delta that installs *atoms* as schema *sid*.

    A first install is pure additions.  A refresh removes the facts of
    the previous closure that the new one dropped — except facts still
    reachable from *another* installed foreign schema's closure (two
    schemas exported by one home shard may share supertypes or domain
    types; removing a shared fact would tear the other import).  The
    provenance fact is replaced to carry the new home epoch.
    """
    new_atoms: Set[Atom] = set(atoms)
    old_atoms: Set[Atom] = set()
    old_entries: List[Atom] = list(
        model.db.matching(Atom("ForeignSchema", (sid, None, None))))
    if old_entries:
        old_atoms = set(public_closure(model, sid))
    protected: Set[Atom] = set()
    for entry in model.db.facts("ForeignSchema"):
        if entry.args[0] != sid:
            protected.update(public_closure(model, entry.args[0]))
    provenance = Atom("ForeignSchema", (sid, home_shard, home_epoch))
    deletions = sorted(old_atoms - new_atoms - protected, key=repr)
    deletions.extend(entry for entry in old_entries if entry != provenance)
    # Only facts actually absent go in: a refresh whose closure did not
    # change (or overlaps another import's) then plans an empty delta.
    additions = sorted(
        (atom for atom in new_atoms
         if next(iter(model.db.matching(atom)), None) is None),
        key=repr)
    if provenance not in old_entries:
        additions.append(provenance)
    return ForeignInstallPlan(sid=sid, additions=additions,
                              deletions=deletions,
                              protected=len(protected & old_atoms))


def install_foreign_schema(manager, sid: Id, atoms: Sequence[Atom],
                           home_shard: int, home_epoch: int,
                           check_mode: str = "delta") -> int:
    """Run the install/refresh session on *manager*; returns its epoch.

    The session is WAL-logged and EES-checked like any evolution
    session, so a crash mid-install recovers to either the previous
    state or the fully-installed one, and an excerpt that would break
    the merged extension's consistency is rolled back (the
    :class:`~repro.errors.InconsistentSchemaError` propagates).
    """
    plan = plan_foreign_install(manager.model, sid, atoms,
                                home_shard, home_epoch)
    if not plan.additions and not plan.deletions:
        # Unchanged closure at an unchanged epoch: no session, no WAL
        # record, no epoch bump.
        return manager.model.epoch
    session = manager.begin_session(check_mode=check_mode)
    try:
        session.modify(additions=plan.additions, deletions=plan.deletions)
        session.commit()
    except Exception:
        if session.active:
            session.rollback()
        raise
    return manager.model.epoch
