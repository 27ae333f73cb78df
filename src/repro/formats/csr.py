"""A from-scratch Compressed Sparse Row (CSR) matrix.

This is the baseline storage format of Fig. 19(a): ``indptr`` is an
O(|V|) row-pointer array, ``indices``/``data`` hold the column ids and
values of the non-zeros.  The implementation is numpy-vectorized and does
not depend on ``scipy.sparse``, which keeps :meth:`CSRMatrix.spmm` an
independent reference for the scipy-backed CSDB kernel
(``CSDBMatrix.spmm(verify=True)``).

Every build orders its non-zeros without a comparison sort:
``_stable_order`` is a least-significant-digit radix sort over 16-bit
digits (numpy's ``kind="stable"`` sort of a 16-bit array is a counting
sort), O(nnz) per pass, ``ceil(bit_length(n_keys - 1) / 16)`` passes per
key — one for the column ids and one for the row ids of any matrix up to
65 536 x 65 536 — with nnz-sized scratch only, whatever the shape.

A build announces that scratch to the C allocator in one request before
it makes its dozen nnz-sized ones (``_reserve_working_set``, DESIGN 6g,
"the sparse half"): glibc sizes its mmap and trim thresholds by the
largest block it has seen freed, and a process that only ever shows it
one array's worth has every build's heap growth trimmed away and
re-faulted, page by page, by the build or the ``multiply`` that runs next.
"""

from __future__ import annotations

import numpy as np

#: nnz-sized 8-byte arrays alive at the peak of a graph read, inputs
#: included (tracemalloc: 5.7 for ``CSDBMatrix.from_coo``, 5.3 for CSR's).
_WORKING_SET_ARRAYS = 6
#: The largest block glibc's adaptive thresholds follow (its
#: ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit, less the page a chunk header
#: rounds up to); a larger request would reserve address space for nothing.
_RESERVE_MAX_BYTES = (32 << 20) - 4096


def _reserve_working_set(nnz: int) -> None:
    """Request a build's whole working set once and hand it straight back.

    The block is never touched, so it costs no page; the arrays the build
    makes next are carved out of the space it leaves.  What it buys: the
    allocator has now seen the build's size, keeps that much heap instead
    of trimming it after every build, and steady-state builds (and the
    products between them) stop re-faulting their pages.  On an allocator
    without adaptive thresholds it is a malloc/free pair and nothing else.
    """
    np.empty(
        min(_WORKING_SET_ARRAYS * nnz, _RESERVE_MAX_BYTES // 8), dtype=np.int64
    )


def _key_dimensions(shape: tuple[int, int]) -> tuple[int, int]:
    """``shape`` as ints, provided ``row * n_cols + col`` fits an int64."""
    n_rows, n_cols = int(shape[0]), int(shape[1])
    if n_rows * n_cols >= 2**63:
        raise ValueError(
            f"shape {(n_rows, n_cols)} too large: n_rows * n_cols must be"
            " below 2**63 (the int64 coordinate key would wrap)"
        )
    return n_rows, n_cols


def _stable_order(
    keys: np.ndarray, n_keys: int, order: np.ndarray | None = None
) -> np.ndarray:
    """Stable order of integer ``keys`` in ``[0, n_keys)``, refining ``order``.

    ``keys[result]`` is non-decreasing; equal keys stay in the order
    ``order`` lists them (input order when ``None``).  Ordering by a
    minor key and refining by a major one is the order of the pair.
    """
    for shift in range(0, max(int(n_keys) - 1, 0).bit_length(), 16):
        digit = (keys >> shift if shift else keys).astype(np.uint16)  # low 16 bits
        if order is None:
            order = np.argsort(digit, kind="stable")
        else:
            order = order[np.argsort(digit[order], kind="stable")]
    if order is None:
        order = np.arange(len(keys), dtype=np.int64)
    return order


def _check_coo(rows, cols, vals, shape):
    """1-D int64 ``rows``/``cols``, float64 ``vals`` (or ``None``), inside ``shape``."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if vals is not None:
        vals = np.asarray(vals, dtype=np.float64)
    shapes = {array.shape for array in (rows, cols, vals) if array is not None}
    if any(len(shape) != 1 for shape in shapes):
        raise ValueError(f"rows, cols, vals must be 1-D, got shapes {sorted(shapes)}")
    if len(shapes) > 1:
        raise ValueError("rows, cols, vals must have equal length")
    n_rows, n_cols = _key_dimensions(shape)
    if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValueError("row index out of range")
    if len(cols) and (cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError("column index out of range")
    return rows, cols, vals, (n_rows, n_cols)


def _sort_coo(rows, row_key, counts, cols, n_cols, vals, sum_duplicates=True):
    """``(indptr, cols, vals)`` of triplets ordered by (row key, column).

    Row ``r``'s key is ``row_key[r]`` (``r`` when ``None``); key ``k``'s
    ``counts[k]`` entries, equal coordinates in input order, come out at
    ``indptr[k]:indptr[k + 1]`` and are summed by :func:`_sum_ordered`.
    """
    keys = rows if row_key is None else row_key[rows]
    order = _stable_order(keys, len(counts), _stable_order(cols, n_cols))
    del keys
    cols, vals = cols[order], None if vals is None else vals[order]
    del order  # before the duplicates are summed, not after
    return _sum_ordered(counts, cols, vals, sum_duplicates)


def _sum_ordered(counts, cols, vals, sum_duplicates):
    """``(indptr, cols, vals)`` of entries ordered by (row, col), ``counts`` per row.

    Equal coordinates are summed from zero in the order given.  ``vals=None``
    (all ones) is never gathered: a sum of ones is the duplicate count.
    """
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    if sum_duplicates and len(cols):
        # An entry opens a new coordinate when its column differs from
        # the one before it or it is the first of its row.
        keep = np.empty(len(cols), dtype=bool)
        keep[0] = True
        np.not_equal(cols[1:], cols[:-1], out=keep[1:])
        keep[indptr[:-1][counts > 0]] = True
        if not keep.all():
            kept = np.zeros(len(cols) + 1, dtype=np.int64)
            np.cumsum(keep, out=kept[1:])
            vals = np.bincount(kept[1:] - 1, weights=vals)
            return kept[indptr], cols[keep], vals.astype(np.float64, copy=False)
        if vals is not None:
            vals = vals + 0.0  # what summing from zero does to -0.0
    return indptr, cols, np.ones(len(cols)) if vals is None else vals


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
        if indices.ndim != 1 or indices.shape != data.shape:
            raise ValueError(
                f"indices {indices.shape} and data {data.shape} must be 1-D and equal"
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
        vals: np.ndarray | None,
        shape: tuple[int, int],
        sum_duplicates: bool = True,
    ) -> "CSRMatrix":
        """Build a CSR matrix from coordinate triplets.

        Contract: entries come out sorted by (row, col); when
        ``sum_duplicates``, entries sharing a coordinate are summed from
        zero in input order (so the result's bits do not depend on how
        the order is found), otherwise they are kept, in input order.
        ``vals=None`` means every value is 1.

        The order is found by stable radix passes over 16-bit digits,
        columns then rows: ``ceil(bit_length(n - 1) / 16)`` passes for a
        dimension of size ``n`` (none for ``n <= 1``), each O(nnz).

        Raises:
            ValueError: on arrays that are not 1-D or of unequal length,
                out-of-range indices, or when ``n_rows * n_cols`` does not
                fit the int64 coordinate key ``a ± b`` merges by (the build
                itself has no such limit).
        """
        rows, cols, vals, shape = _check_coo(rows, cols, vals, shape)
        _reserve_working_set(len(rows))
        counts = np.bincount(rows, minlength=shape[0])
        built = _sort_coo(rows, None, counts, cols, shape[1], vals, sum_duplicates)
        return cls(*built, shape)

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
        _, n_cols = _key_dimensions(self.shape)
        # Both operands are ordered by (row, col), so they are merged,
        # not sorted: an entry of ``other`` goes after every entry of
        # ``self`` whose coordinate is not greater (equal coordinates are
        # summed in operand order) and ``self`` fills the slots left.
        theirs = np.searchsorted(
            self.nnz_row_ids() * n_cols + self.indices,
            other.nnz_row_ids() * n_cols + other.indices,
            side="right",
        ) + np.arange(other.nnz, dtype=np.int64)
        free = np.ones(self.nnz + other.nnz, dtype=bool)
        free[theirs] = False
        ours = np.flatnonzero(free)
        cols = np.empty(len(free), dtype=np.int64)
        cols[theirs], cols[ours] = other.indices, self.indices
        vals = np.empty(len(free), dtype=np.float64)
        vals[theirs], vals[ours] = sign * other.data, self.data
        counts = self.row_degrees() + other.row_degrees()
        return CSRMatrix(
            *_sum_ordered(counts, cols, vals, sum_duplicates=True), self.shape
        ).prune()

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
        # Masking keeps the (row, col) order; a row now starts after the
        # entries kept before its old start.
        kept_before = np.zeros(self.nnz + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        return CSRMatrix(
            kept_before[self.indptr],
            self.indices[keep],
            self.data[keep],
            self.shape,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
