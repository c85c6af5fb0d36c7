"""Plain-text experiment tables in the paper's style."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

__all__ = ["ExperimentTable"]


@dataclass
class ExperimentTable:
    """A titled table that renders aligned plain text.

    Rows hold raw values (floats render to three decimals), so the
    assertions on a paper claim read them back with :meth:`cell` or
    :meth:`column`.

    >>> t = ExperimentTable("Table 1", ["Property", "90 min"], note="demo")
    >>> t.add_row(["Visited URLs", 1234])
    >>> print(t.render())  # doctest: +ELLIPSIS
    Table 1
    ...
    """

    title: str
    headers: Sequence[str]
    note: str = ""
    rows: list[list] = field(default_factory=list)

    def add_row(self, row: Sequence) -> None:
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(self.headers)}"
            )
        self.rows.append(list(row))

    def column(self, header: str) -> list:
        """Every row's raw value under ``header``, in row order."""
        if header not in self.headers:
            raise KeyError(header)
        index = list(self.headers).index(header)
        return [row[index] for row in self.rows]

    def cell(self, row_key, header: str):
        """The raw value under ``header`` in the first row whose first
        cell is ``row_key``; ``KeyError`` when either is missing."""
        keys = self.column(self.headers[0])
        for key, value in zip(keys, self.column(header)):
            if key == row_key:
                return value
        raise KeyError(row_key)

    @staticmethod
    def _cell(value) -> str:
        if isinstance(value, float):
            return f"{value:,.3f}".rstrip("0").rstrip(".")
        if isinstance(value, int):
            return f"{value:,}"
        return str(value)

    def render(self) -> str:
        cells = [[self._cell(v) for v in row] for row in self.rows]
        widths = [
            max(len(str(header)), *(len(row[i]) for row in cells), 1)
            if cells
            else len(str(header))
            for i, header in enumerate(self.headers)
        ]
        lines = [self.title]
        if self.note:
            lines.append(f"  ({self.note})")
        header_line = " | ".join(
            str(h).ljust(w) for h, w in zip(self.headers, widths)
        )
        lines.append(header_line)
        lines.append("-+-".join("-" * w for w in widths))
        for row in cells:
            lines.append(
                " | ".join(cell.rjust(w) for cell, w in zip(row, widths))
            )
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()
