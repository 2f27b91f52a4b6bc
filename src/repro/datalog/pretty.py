"""Rendering of extensions as the aligned tables the paper prints."""

from __future__ import annotations

from typing import List, Sequence

from repro.datalog.engine import DeductiveDatabase
from repro.datalog.terms import Atom


def render_rows(rows: Sequence[Sequence[object]]) -> str:
    """Align a list of rows into columns (Figure-2 style)."""
    if not rows:
        return "(empty)"
    width = max(len(row) for row in rows)
    padded = [list(map(str, row)) + [""] * (width - len(row)) for row in rows]
    column_widths = [
        max(len(row[column]) for row in padded) for column in range(width)
    ]
    lines = []
    for row in padded:
        cells = [row[column].ljust(column_widths[column])
                 for column in range(width)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def render_extension(database: DeductiveDatabase, pred: str,
                     sort_rows: bool = True) -> str:
    """Render one predicate's extension with the predicate name in the
    first column of the first row, like the paper's Figure 2."""
    facts = list(database.facts(pred))
    rows: List[List[object]] = [[pred] + list(fact.args) for fact in facts]
    if sort_rows:
        rows.sort(key=lambda row: tuple(str(cell) for cell in row[1:]))
    for index, row in enumerate(rows):
        if index > 0:
            row[0] = ""
    return render_rows(rows)


