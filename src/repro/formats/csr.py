"""A from-scratch Compressed Sparse Row (CSR) matrix.

This is the baseline storage format of Fig. 19(a): ``indptr`` is an
O(|V|) row-pointer array, ``indices``/``data`` hold the column ids and
values of the non-zeros.  The implementation is numpy-vectorized and does
not depend on ``scipy.sparse``, which keeps :meth:`CSRMatrix.spmm` an
independent reference for the scipy-backed CSDB kernel
(``CSDBMatrix.spmm(verify=True)``).
"""

from __future__ import annotations

import numpy as np


class CSRMatrix:
    """Sparse matrix in CSR layout.

    Args:
        indptr: int64 array of length ``n_rows + 1``; row ``i`` owns
            non-zeros ``indptr[i]:indptr[i+1]``.
        indices: int32/int64 column ids, length nnz, sorted within a row.
        data: float64 values, length nnz.
        shape: (n_rows, n_cols).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices)
        data = np.asarray(data, dtype=np.float64)
        n_rows, n_cols = shape
        if indptr.ndim != 1 or len(indptr) != n_rows + 1:
            raise ValueError(
                f"indptr must have length n_rows+1={n_rows + 1}, got {len(indptr)}"
            )
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(indices) != len(data):
            raise ValueError(
                f"indices ({len(indices)}) and data ({len(data)}) lengths differ"
            )
        if len(indices) and (indices.min() < 0 or indices.max() >= n_cols):
            raise ValueError("column index out of range")
        self.indptr = indptr
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = data
        self.shape = (int(n_rows), int(n_cols))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
        sum_duplicates: bool = True,
    ) -> "CSRMatrix":
        """Build a CSR matrix from coordinate triplets.

        Contract: entries come out sorted by (row, col); when
        ``sum_duplicates``, entries sharing a coordinate are summed from
        zero in input order (so the result's bits do not depend on how
        the sort is done), otherwise they are kept, in input order.

        Raises:
            ValueError: on out-of-range indices, or when ``n_rows *
                n_cols`` does not fit the int64 sort key.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError("rows, cols, vals must have equal length")
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows * n_cols >= 2**63:
            raise ValueError(
                f"shape {(n_rows, n_cols)} too large: n_rows * n_cols must be"
                " below 2**63 (the int64 sort key would wrap)"
            )
        if len(rows):
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        # One stable sort of the fused key orders by (row, col) and keeps
        # equal coordinates in input order.
        key = rows * n_cols + cols
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
        if sum_duplicates and len(key):
            keep = np.empty(len(key), dtype=bool)
            keep[0] = True
            keep[1:] = key[1:] != key[:-1]
            if keep.all():
                vals = vals + 0.0  # what summing from zero does to -0.0
            else:
                vals = np.bincount(np.cumsum(keep) - 1, weights=vals)
                key = key[keep]
        rows, cols = np.divmod(key, n_cols)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        return cls(indptr, cols, vals, shape)

    # -- basic properties -------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros."""
        return int(len(self.data))

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of columns."""
        return self.shape[1]

    def row_degrees(self) -> np.ndarray:
        """Non-zero count of every row (node out-degrees for a graph)."""
        return np.diff(self.indptr)

    def nnz_row_ids(self) -> np.ndarray:
        """Row id of every non-zero, aligned with ``indices``."""
        return np.repeat(
            np.arange(self.n_rows, dtype=np.int64), self.row_degrees()
        )

    def col_degrees(self) -> np.ndarray:
        """Non-zero count of every column (node in-degrees for a graph)."""
        return np.bincount(self.indices, minlength=self.n_cols).astype(np.int64)

    def index_bytes(self) -> int:
        """Bytes spent on index structures (the O(|V|) indptr + indices)."""
        return int(self.indptr.nbytes + self.indices.nbytes)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(column ids, values) of row ``i``."""
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row {i} out of range [0, {self.n_rows})")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    # -- linear algebra ---------------------------------------------------

    def spmm(self, dense: np.ndarray) -> np.ndarray:
        """Sparse x dense multiplication: ``self @ dense``."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim == 1:
            dense = dense[:, None]
        if dense.shape[0] != self.n_cols:
            raise ValueError(
                f"dimension mismatch: {self.shape} @ {dense.shape}"
            )
        out = np.empty((self.n_rows, dense.shape[1]), dtype=np.float64)
        prod = self.data[:, None] * dense[self.indices]
        row_ids = self.nnz_row_ids()
        # Per cell: the sequential sum over the row's non-zeros, from zero.
        for j in range(out.shape[1]):
            out[:, j] = np.bincount(
                row_ids, weights=prod[:, j], minlength=self.n_rows
            )
        return out

    def spmv(self, vector: np.ndarray) -> np.ndarray:
        """Sparse x vector multiplication."""
        return self.spmm(np.asarray(vector).reshape(-1, 1)).ravel()

    def transpose(self) -> "CSRMatrix":
        """Transposed copy (CSR of the transpose)."""
        return CSRMatrix.from_coo(
            self.indices,
            self.nnz_row_ids(),
            self.data,
            (self.n_cols, self.n_rows),
            sum_duplicates=False,
        )

    def to_dense(self) -> np.ndarray:
        """Dense ndarray copy (testing/small matrices only)."""
        return np.bincount(
            self.nnz_row_ids() * self.n_cols + self.indices,
            weights=self.data,
            minlength=self.n_rows * self.n_cols,
        ).reshape(self.shape)

    def _elementwise(self, other: "CSRMatrix", sign: float) -> "CSRMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        rows = np.concatenate([self.nnz_row_ids(), other.nnz_row_ids()])
        cols = np.concatenate([self.indices, other.indices])
        vals = np.concatenate([self.data, sign * other.data])
        merged = CSRMatrix.from_coo(rows, cols, vals, self.shape)
        return merged.prune()

    def __add__(self, other: "CSRMatrix") -> "CSRMatrix":
        return self._elementwise(other, 1.0)

    def __sub__(self, other: "CSRMatrix") -> "CSRMatrix":
        return self._elementwise(other, -1.0)

    def scale(self, factor: float) -> "CSRMatrix":
        """Return ``factor * self``."""
        return CSRMatrix(self.indptr, self.indices, self.data * factor, self.shape)

    def prune(self, tol: float = 0.0) -> "CSRMatrix":
        """Drop stored entries with ``|value| <= tol``."""
        keep = np.abs(self.data) > tol
        if keep.all():
            return self
        return CSRMatrix.from_coo(
            self.nnz_row_ids()[keep],
            self.indices[keep],
            self.data[keep],
            self.shape,
            sum_duplicates=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
