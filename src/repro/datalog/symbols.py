"""Constant interning for the columnar fact store.

Every constant entering the deductive database — schema names, ids,
codes, version numbers — is mapped to a small integer at the
:class:`~repro.datalog.facts.FactStore` boundary.  Relations then hold
rows as columns of ints, join comparisons become integer equality, and
compiled plan closures never touch the original Python objects on
interior steps; values are decoded back only at the API surface
(``rows()`` / ``matching()`` / substitutions) and for provenance atoms.

The table is **append-only**: a code, once assigned, never changes and
is never reused.  That is what lets copy-on-write snapshots
(:meth:`~repro.datalog.facts.FactStore.fork_shared`) share one table by
reference across epochs — a reader decoding codes recorded at epoch *n*
stays correct no matter how many constants later epochs intern, and
publication never copies the table.

Two lookup flavours:

* :meth:`intern` — get-or-assign, used on the write path (fact
  insertion, query seeds).  Locked, so concurrent sessions and replay
  threads cannot assign one value two codes.
* :meth:`code` — *soft* lookup, used on the read path (query constants,
  membership probes).  A value never interned matches no stored row, so
  the probe answers :data:`MISSING` and the caller short-circuits
  without growing the table.

Equality follows Python's dict semantics, exactly like the previous
tuple-set storage: ``1``, ``1.0`` and ``True`` intern to one code, so
code equality coincides with ``==`` on the original values.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Tuple

__all__ = ["MISSING", "SymbolTable"]

#: Soft-lookup answer for a value that was never interned.  Chosen so a
#: probe with it falls through every integer-keyed structure naturally:
#: no index bucket, no row key, and no equality with any real code.
MISSING = -1


class SymbolTable:
    """An append-only bidirectional value <-> int mapping."""

    __slots__ = ("_codes", "_values", "_lock")

    def __init__(self) -> None:
        self._codes: Dict[object, int] = {}
        self._values: List[object] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: object) -> bool:
        return value in self._codes

    def intern(self, value: object) -> int:
        """The code for *value*, assigning the next free one if new.

        Appends under a lock; the unlocked fast path is safe because
        codes are published to ``_codes`` only after the value is
        readable in ``_values``.
        """
        code = self._codes.get(value)
        if code is None:
            with self._lock:
                code = self._codes.get(value)
                if code is None:
                    code = len(self._values)
                    self._values.append(value)
                    self._codes[value] = code
        return code

    def code(self, value: object) -> int:
        """Soft lookup: the code for *value*, or :data:`MISSING`."""
        return self._codes.get(value, MISSING)

    def code_row(self, row: Iterable[object]) -> Tuple[int, ...]:
        """Soft-encode one row (:data:`MISSING` marks unknown values)."""
        get = self._codes.get
        return tuple(get(value, MISSING) for value in row)

    def value(self, code: int):
        """The value a code decodes to."""
        return self._values[code]

    @property
    def values(self) -> List[object]:
        """The code -> value list, for hot decode loops (do not mutate)."""
        return self._values
