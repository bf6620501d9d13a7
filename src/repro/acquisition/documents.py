"""The input-document model.

A document contains tables; a table is a list of rows of cells; a cell
carries text and may span multiple rows and/or columns -- the paper's
Figure 1 uses a year cell spanning ten rows and section cells spanning
several.  Tables therefore have "variable structure": the number of
*physical* cells per row varies even when the *logical* grid is
rectangular.

:meth:`Table.logical_grid` expands spans into the rectangular logical
grid (each grid position holds the text of the covering cell), which is
what both the HTML renderer and tests use to reason about content
irrespective of the span layout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Sequence


class SourceFormat(enum.Enum):
    """Where a document came from; drives the acquisition pipeline."""

    PAPER = "paper"
    PDF = "pdf"
    MSWORD = "msword"
    RTF = "rtf"
    HTML = "html"

    @property
    def needs_ocr(self) -> bool:
        """Paper documents are digitised and OCR-processed first."""
        return self is SourceFormat.PAPER


@dataclass(frozen=True)
class Cell:
    """One physical table cell."""

    text: str
    rowspan: int = 1
    colspan: int = 1

    def __post_init__(self) -> None:
        if self.rowspan < 1 or self.colspan < 1:
            raise ValueError("cell spans must be >= 1")

    def with_text(self, text: str) -> "Cell":
        return replace(self, text=text)


@dataclass(frozen=True)
class Row:
    """One physical table row."""

    cells: Sequence[Cell]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)


class TableStructureError(ValueError):
    """Raised when spans overlap or overflow the grid."""


@dataclass(frozen=True)
class Table:
    """A table with possibly multi-row / multi-column cells."""

    rows: Sequence[Row]
    caption: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def logical_grid(self) -> List[List[Optional[str]]]:
        """Expand spans into the rectangular logical grid.

        Grid position (r, c) holds the text of the physical cell that
        covers it, or ``None`` if nothing covers it (ragged input).
        Mirrors the HTML table layout algorithm: each physical cell is
        placed at the first free column of its row, then its span block
        is marked occupied.
        """
        grid: List[List[Optional[str]]] = []
        occupied: List[List[bool]] = []
        # Every row is kept at the current width, so existing rows are
        # padded only when the width grows.
        width = 0

        def ensure_size(n_rows: int, n_columns: int) -> None:
            nonlocal width
            if n_columns > width:
                pad = n_columns - width
                for row_cells, row_flags in zip(grid, occupied):
                    row_cells.extend([None] * pad)
                    row_flags.extend([False] * pad)
                width = n_columns
            while len(grid) < n_rows:
                grid.append([None] * width)
                occupied.append([False] * width)

        for row_index, row in enumerate(self.rows):
            ensure_size(row_index + 1, 0)
            column = 0
            for cell in row:
                # Find the first free column in this row.
                while True:
                    ensure_size(row_index + 1, column + 1)
                    if not occupied[row_index][column]:
                        break
                    column += 1
                ensure_size(row_index + cell.rowspan, column + cell.colspan)
                for r in range(row_index, row_index + cell.rowspan):
                    for c in range(column, column + cell.colspan):
                        if occupied[r][c]:
                            raise TableStructureError(
                                f"cell spans overlap at grid position ({r}, {c})"
                            )
                        occupied[r][c] = True
                        grid[r][c] = cell.text
                column += cell.colspan
        return grid

    def logical_width(self) -> int:
        grid = self.logical_grid()
        return len(grid[0]) if grid else 0

    def map_cells(self, transform) -> "Table":
        """A copy with every cell's text mapped through *transform*.

        *transform* receives ``(row_index, cell_index, cell)`` and
        returns the new text.
        """
        new_rows = []
        for row_index, row in enumerate(self.rows):
            new_cells = [
                cell.with_text(transform(row_index, cell_index, cell))
                for cell_index, cell in enumerate(row)
            ]
            new_rows.append(Row(new_cells))
        return Table(new_rows, caption=self.caption)


@dataclass(frozen=True)
class Document:
    """An input document: a titled collection of tables."""

    title: str
    tables: Sequence[Table]
    source_format: SourceFormat = SourceFormat.HTML

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", tuple(self.tables))

    def with_tables(self, tables: Sequence[Table]) -> "Document":
        return replace(self, tables=tuple(tables))
