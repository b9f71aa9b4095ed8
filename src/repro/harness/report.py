"""Tabular figure data with paper-style text rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["FigureData"]


@dataclass
class FigureData:
    """One regenerated figure: labelled columns and data rows.

    ``meta`` carries figure-level scalars (e.g. fitted r², chosen
    regression transform) that the paper reports in prose.  ``results``
    keeps the per-point results a figure tabulated, for callers that
    gate more than the table; it is never rendered.
    """

    name: str
    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)
    results: list[Any] = field(default_factory=list, repr=False)

    def add_row(self, *values: Any) -> None:
        """Append one row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list[Any]:
        """All values of one column."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_text(self) -> str:
        """Render as an aligned text table with the title and metadata."""
        def fmt(v: Any) -> str:
            if isinstance(v, float):
                if v == 0:
                    return "0"
                if abs(v) >= 1e4 or abs(v) < 1e-2:
                    return f"{v:.3g}"
                return f"{v:,.2f}"
            return str(v)

        body = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in body))
            if body else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.name}: {self.title} =="]
        header = " | ".join(c.rjust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in body:
            lines.append(" | ".join(v.rjust(w) for v, w in zip(row, widths)))
        for key, value in self.meta.items():
            lines.append(f"  {key}: {fmt(value)}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()
