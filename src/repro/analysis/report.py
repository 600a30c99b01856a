"""Plain-text tables for experiment output (paper-style rows)."""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Sequence, Tuple

#: One table column: its header and the function that reads its cell.
Column = Tuple[str, Callable[[Any], Any]]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], *, title: str = ""
) -> str:
    """Render an aligned ASCII table.

    Raises ``ValueError`` naming the first row whose cell count differs
    from the header's.
    """
    rendered_rows = [[_render(cell) for cell in row] for row in rows]
    for index, row in enumerate(rendered_rows):
        if len(row) != len(headers):
            raise ValueError(
                f"row {index} has {len(row)} cells, the header {len(headers)}"
            )
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    parts: List[str] = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(list(headers)))
    parts.append(line(["-" * width for width in widths]))
    for row in rendered_rows:
        parts.append(line(row))
    return "\n".join(parts)


def format_columns(
    columns: Sequence[Column], rows: Iterable[Any], *, title: str = ""
) -> str:
    """Render ``rows`` through columns declared once as ``(header, cell)``."""
    return format_table(
        [header for header, _ in columns],
        [[cell(row) for _, cell in columns] for row in rows],
        title=title,
    )


def _render(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    return str(cell)
