"""Compressed sparse row (CSR) matrices for the MILP solve path.

The grounded repair instances ``S*(AC)`` are naturally sparse: each
ground row touches a handful of cells (a steadiness row mentions two
periods, a Big-M link row one measure and one touch indicator), so the
constraint matrices run at 1-3% density even on small documents and
get *sparser* as instances grow.  Dense ``(m, n)`` arrays would waste
memory and per-pivot work quadratically at the e4/e5 scale, so no
solve step materialises one.

This module is the shared sparse substrate:

- :class:`CSRMatrix` -- the classic ``indptr`` / ``indices`` / ``data``
  triplet over numpy arrays, with vectorised ``matvec`` / ``rmatvec``
  and deterministic (sorted-column) row storage;
- :class:`CSCView` -- the column-major companion built once per matrix
  for pricing loops that walk columns (revised simplex, cut
  separation);
- :class:`SparseArrays` -- the lowered problem, shared by presolve,
  the revised simplex, the warm-start tree, the cutting-plane layer
  and the persistent HiGHS node LP.

Everything here is numpy-only; conversion helpers to
``scipy.sparse`` exist for the scipy-backed solvers but import scipy
lazily so the from-scratch path stays dependency-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

INF = math.inf


class CSRMatrix:
    """An immutable CSR matrix: ``indptr`` / ``indices`` / ``data``.

    Row ``i`` holds its column indices in
    ``indices[indptr[i]:indptr[i+1]]`` (strictly increasing -- the
    constructor canonicalises) and the matching coefficients in
    ``data``.  Explicit zeros are dropped so equality of the triplet
    arrays is equality of the matrices.
    """

    __slots__ = ("shape", "indptr", "indices", "data", "_row_ids", "_csc")

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=float)
        if self.indptr.shape[0] != self.shape[0] + 1:
            raise ValueError("indptr length must be n_rows + 1")
        if self.indices.shape[0] != self.data.shape[0]:
            raise ValueError("indices and data must have equal length")
        self._row_ids: Optional[np.ndarray] = None
        self._csc: Optional["CSCView"] = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_row_dicts(
        cls, rows: Sequence[Dict[int, float]], n_columns: int
    ) -> "CSRMatrix":
        """Build from per-row ``{column: coefficient}`` dicts.

        Columns are sorted within each row and zero coefficients are
        dropped, so two dicts describing the same row produce identical
        storage regardless of insertion order.
        """
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        indices: List[int] = []
        data: List[float] = []
        for i, row in enumerate(rows):
            items = sorted(
                (int(j), float(c)) for j, c in row.items() if float(c) != 0.0
            )
            indptr[i + 1] = indptr[i] + len(items)
            indices.extend(j for j, _ in items)
            data.extend(c for _, c in items)
        return cls(
            (len(rows), n_columns),
            indptr,
            np.asarray(indices, dtype=np.int64),
            np.asarray(data, dtype=float),
        )

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "CSRMatrix":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("from_dense needs a 2-D array")
        m, n = matrix.shape
        mask = matrix != 0.0
        counts = mask.sum(axis=1)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        rows, cols = np.nonzero(mask)
        return cls((m, n), indptr, cols.astype(np.int64), matrix[rows, cols])

    @classmethod
    def empty(cls, n_columns: int) -> "CSRMatrix":
        return cls(
            (0, n_columns),
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=float),
        )

    # -- basic properties -----------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    @property
    def row_ids(self) -> np.ndarray:
        """Row index of every stored entry (length ``nnz``), cached."""
        if self._row_ids is None:
            counts = np.diff(self.indptr)
            self._row_ids = np.repeat(
                np.arange(self.shape[0], dtype=np.int64), counts
            )
        return self._row_ids

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(column indices, coefficients)`` of row *i* (views)."""
        start, stop = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:stop], self.data[start:stop]

    # -- linear algebra --------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` without densifying."""
        if self.shape[0] == 0:
            return np.zeros(0)
        products = self.data * np.asarray(x, dtype=float)[self.indices]
        return np.bincount(
            self.row_ids, weights=products, minlength=self.shape[0]
        )

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``A.T @ y`` without densifying."""
        if self.nnz == 0:
            return np.zeros(self.shape[1])
        products = self.data * np.asarray(y, dtype=float)[self.row_ids]
        return np.bincount(self.indices, weights=products, minlength=self.shape[1])

    # -- conversions -----------------------------------------------------

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        if self.nnz:
            out[self.row_ids, self.indices] = self.data
        return out

    @property
    def csc(self) -> "CSCView":
        """The column-major view, built once and cached."""
        if self._csc is None:
            self._csc = CSCView.from_csr(self)
        return self._csc

    def to_scipy(self):
        """As a ``scipy.sparse.csr_matrix`` (lazy scipy import)."""
        from scipy.sparse import csr_matrix

        return csr_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape
        )

    # -- structural edits (all return new matrices) ----------------------

    def vstack_rows(
        self, rows: Sequence[Dict[int, float]]
    ) -> "CSRMatrix":
        """This matrix with *rows* appended below."""
        extra = CSRMatrix.from_row_dicts(rows, self.shape[1])
        indptr = np.concatenate(
            [self.indptr, self.indptr[-1] + extra.indptr[1:]]
        )
        return CSRMatrix(
            (self.shape[0] + extra.shape[0], self.shape[1]),
            indptr,
            np.concatenate([self.indices, extra.indices]),
            np.concatenate([self.data, extra.data]),
        )

    def __eq__(self, other: object) -> bool:  # pragma: no cover - debug aid
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"


class CSCView:
    """Column-major companion of a :class:`CSRMatrix`.

    Built once per matrix (a stable counting sort of the CSR triplet)
    and used by every pass that walks columns: revised-simplex pricing
    reads ``column(j)`` to form ``B^-1 A_j``, and the vectorised
    reduced-cost sweep uses the flat arrays directly.
    """

    __slots__ = ("shape", "indptr", "rows", "data")

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        rows: np.ndarray,
        data: np.ndarray,
    ) -> None:
        self.shape = shape
        self.indptr = indptr
        self.rows = rows
        self.data = data

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "CSCView":
        m, n = csr.shape
        order = np.argsort(csr.indices, kind="stable")
        rows = csr.row_ids[order]
        data = csr.data[order]
        counts = np.bincount(csr.indices, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls((m, n), indptr, rows, data)

    def column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(row indices, coefficients)`` of column *j* (views)."""
        start, stop = self.indptr[j], self.indptr[j + 1]
        return self.rows[start:stop], self.data[start:stop]


@dataclass
class SparseArrays:
    """The model lowered to CSR blocks, shared by every solver pass.

    The bounded form is documented in :mod:`repro.milp.lowering`;
    ``>=`` rows are already negated into ``<=`` rows.
    """

    costs: np.ndarray
    a_ub: CSRMatrix
    b_ub: np.ndarray
    a_eq: CSRMatrix
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integral: List[int]
    objective_constant: float

    def __post_init__(self) -> None:
        n = self.costs.shape[0]
        if (
            self.a_ub.shape != (self.b_ub.shape[0], n)
            or self.a_eq.shape != (self.b_eq.shape[0], n)
            or self.lower.shape != (n,)
            or self.upper.shape != (n,)
        ):
            raise ValueError("constraint matrix shapes do not match")

    @property
    def n(self) -> int:
        return self.costs.shape[0]

    @property
    def m_ub(self) -> int:
        return self.a_ub.shape[0]

    @property
    def m_eq(self) -> int:
        return self.a_eq.shape[0]

    def with_extra_ub_rows(
        self, rows: Sequence[Dict[int, float]], rhs: Sequence[float]
    ) -> "SparseArrays":
        """A copy with *rows* appended to the ``<=`` block (cut rows)."""
        return SparseArrays(
            costs=self.costs,
            a_ub=self.a_ub.vstack_rows(rows),
            b_ub=np.concatenate([self.b_ub, np.asarray(rhs, dtype=float)]),
            a_eq=self.a_eq,
            b_eq=self.b_eq,
            lower=self.lower,
            upper=self.upper,
            integral=self.integral,
            objective_constant=self.objective_constant,
        )
