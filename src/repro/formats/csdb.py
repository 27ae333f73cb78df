"""Compressed Sparse Degree-Block (CSDB) format — §III-A of the paper.

CSDB exploits the skewed degree distribution of real-world graphs: rows
are grouped into *blocks of equal degree* (sorted by decreasing degree),
so the per-row pointer array of CSR (O(|V|)) collapses into two tiny
arrays of size O(|unique degrees|):

- ``deg_list`` — the distinct degrees, descending (``[4, 3, 2, 0]`` for
  the paper's example graph);
- ``deg_ind``  — the starting *row offset* of each degree block
  (``[0, 3, 5, 7]``; we append a final ``n_rows`` sentinel for clean
  binary search).

Within a block every row has the same degree, so the edge-array offset of
row ``i`` is computed arithmetically (Eq. 1):
``ptr(i) = block_ptr[b] + (i - deg_ind[b]) * deg_list[b]``.

Because blocks require rows sorted by degree, the matrix stores a
permutation ``perm`` (CSDB row -> original row id).  All public operators
speak the *original* indexing; the permutation is an internal detail,
except for the SpMM engine which deliberately works in CSDB row space:
partitions are contiguous runs of CSDB rows, their
:meth:`CSDBMatrix.spmm_rows` products fill contiguous slices of a
CSDB-order product, and :meth:`CSDBMatrix.to_original_order` alone maps
that product to original row order, with one gather.  No other module
reads the permutation to place a product.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np
from scipy.sparse import csr_array

from repro.formats.csr import (
    CSRMatrix, _check_coo, _reserve_working_set, _sort_coo, _stable_order,
)


#: Held while an attach silences the resource tracker (before 3.13): a
#: segment another thread created meanwhile would go unregistered.
_UNTRACKED = threading.Lock()


class KernelVerificationError(AssertionError):
    """The SpMM kernel diverged from the from-scratch CSR reference."""


@dataclass(frozen=True)
class SharedArraySpec:
    """Locator of one ndarray living in a shared-memory segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedCSDBHandle:
    """Picklable descriptor of a CSDB matrix in shared memory.

    Carries only segment names and array metadata — a worker process
    rebuilds a zero-copy :class:`CSDBMatrix` from it via
    :meth:`CSDBMatrix.from_shared`.
    """

    deg_list: SharedArraySpec
    deg_ind: SharedArraySpec
    col_list: SharedArraySpec
    nnz_list: SharedArraySpec
    perm: SharedArraySpec
    shape: tuple[int, int]

    @property
    def specs(self) -> tuple[SharedArraySpec, ...]:
        return (
            self.deg_list, self.deg_ind, self.col_list, self.nnz_list,
            self.perm,
        )

    @property
    def key(self) -> str:
        """Stable identity of the shared copy (its first segment name)."""
        return self.deg_list.name


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment; the resource tracker never hears of it.

    The creator's registration is what unlinks the segment if it dies
    without ``close()``, and its children share its tracker, which keeps
    one entry per name: dropping an attach's registration (CPython
    gh-82300) would drop the creator's.  3.13+ has ``track=False``.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - depends on Python version
        with _UNTRACKED:
            register = resource_tracker.register
            resource_tracker.register = lambda *_: None
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = register


def unlink_segment(name: str) -> None:
    """Attach and unlink; the unlink drops the creator's registration
    (on 3.13+ only if the attach is tracked, so this one is).

    A missing segment is not an error — cleanup paths may race.
    """
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - cleanup race
        pass


def create_shared_array(array: np.ndarray, name: str) -> SharedArraySpec:
    """Copy an ndarray into a new named shared segment; returns its spec.

    The segment is created with ``create=True`` and must eventually be
    released by the owner (``close()`` + ``unlink()``); callers track the
    returned name.  Zero-length arrays get a 1-byte segment (POSIX shm
    rejects empty mappings).
    """
    segment = shared_memory.SharedMemory(
        name=name, create=True, size=max(int(array.nbytes), 1)
    )
    try:
        if array.size:
            view = np.ndarray(
                array.shape, dtype=array.dtype, buffer=segment.buf
            )
            view[:] = array
            # Drop the exported buffer before close() — mmap refuses to
            # close while a view holds it.
            del view
        return SharedArraySpec(
            name=segment.name, shape=tuple(array.shape), dtype=str(array.dtype)
        )
    finally:
        segment.close()


def attach_shared_array(
    spec: SharedArraySpec,
) -> tuple[np.ndarray, shared_memory.SharedMemory]:
    """Zero-copy view over a shared segment; caller keeps the segment."""
    segment = attach_segment(spec.name)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
    return view, segment


def as_values(values) -> np.ndarray:
    """``values`` as a value array: float32 stays float32, all else is float64.

    The two value dtypes a product runs in: float64 by default, float32
    where a caller cast on purpose (ProNE's propagation half).
    """
    values = np.asarray(values)
    if values.dtype == np.float32:
        return values
    return values.astype(np.float64, copy=False)


def _run_gather(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Index that concatenates the runs ``[starts[i], starts[i] + lengths[i])``.

    One ``np.repeat``: position ``j`` of run ``i`` reads ``starts[i] + j``,
    and ``j`` is the output position minus the lengths before run ``i``.
    """
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(
        total, dtype=np.int64
    )


def degree_blocks(degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(perm, deg_list, deg_ind)`` of rows with the given degrees.

    Rows go in stable order of descending degree (equal-degree rows keep
    their original order, matching the paper's example layout): one
    16-bit radix ordering of ``len(degrees)`` keys, nothing nnz-sized.
    """
    top = int(degrees.max()) if len(degrees) else 0
    perm = _stable_order(top - degrees, top + 1)
    lengths = degrees[perm]
    # A block starts where the degree changes (nowhere, without rows).
    starts = np.flatnonzero(
        np.concatenate([[True], lengths[1:] != lengths[:-1]])[: len(lengths)]
    )
    return perm, lengths[starts], np.append(starts, len(lengths))


@dataclass(eq=False)
class _Pattern:
    """A sparsity pattern: the structural arrays and all that follows from them.

    Compared and hashed by identity — two patterns of equal content are
    two patterns.  The caches start empty and are filled, once, by
    whichever matrix on the pattern asks first.
    """

    deg_list: np.ndarray
    deg_ind: np.ndarray
    col_list: np.ndarray
    perm: np.ndarray
    shape: tuple[int, int]
    block_ptr: np.ndarray | None = None
    inv_perm: np.ndarray | None = None
    row_degrees: np.ndarray | None = None
    nnz_prefix: np.ndarray | None = None
    col_degrees: np.ndarray | None = None
    #: ``(indices, indptr)`` of the kernel view, as scipy keeps them.
    kernel_index: tuple[np.ndarray, np.ndarray] | None = None


class SharedCSDB:
    """Owner side of a CSDB matrix copied into shared memory.

    Created by :meth:`CSDBMatrix.to_shared`; the owner must call
    :meth:`close` (idempotent) to unlink the segments once no process
    needs them.  The executor (:mod:`repro.parallel.shared`) manages the
    lifetime for engine-driven SpMM.
    """

    def __init__(self, handle: SharedCSDBHandle) -> None:
        self.handle = handle
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Unlink every segment (safe to call more than once)."""
        if self._closed:
            return
        self._closed = True
        for spec in self.handle.specs:
            unlink_segment(spec.name)

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


class CSDBMatrix:
    """Sparse matrix in the paper's compressed sparse degree-block layout.

    A matrix is a sparsity *pattern* plus its own values.  The pattern
    (``matrix.pattern``, an opaque token) owns the structural arrays —
    ``deg_list``, ``deg_ind``, ``col_list``, ``perm``, ``block_ptr``,
    ``shape``, readable under those names on the matrix — and every
    cache that follows from them alone: ``inv_perm``, ``row_degrees``,
    ``nnz_prefix``, ``col_degrees``, the kernel view's index arrays.
    :meth:`with_values` siblings hold the *same* pattern object: the
    arrays are validated once, a cache filled through one sibling is
    there for all, and what is keyed on the pattern's identity (an
    :class:`~repro.core.spmm.SpMMEngine`'s plans) is shared by them and
    dies with the last.  :meth:`mark_mutated` moves a matrix onto a
    fresh pattern over the same arrays.

    The matrix owns ``nnz_list`` and, once multiplied, one kernel-ready
    scipy CSR view of itself (:meth:`kernel_view`).  The view's values
    alias ``nnz_list``.  Its index arrays are whatever scipy makes of
    ``col_list`` and ``nnz_prefix``: aliases too where ``csr_array``
    keeps the int64 dtype it is given (scipy 1.17 does), its own int32
    copies on versions that narrow — about 4 B per non-zero + 4 B per
    row per live multiplied *pattern*.  There is
    exactly one view per matrix, never one per row range: a narrowed
    view per range would hold a second copy of the indices for every
    executor that cuts the rows differently, and forked pool workers
    would inherit them all.  The view refers to the arrays, not to the
    matrix, so it never keeps its matrix alive.
    """

    #: Keeps attached shared-memory segments alive for matrices built by
    #: from_shared (their arrays are zero-copy views into them).
    _shared_segments: tuple[shared_memory.SharedMemory, ...] = ()

    def __init__(
        self,
        deg_list: np.ndarray,
        deg_ind: np.ndarray,
        col_list: np.ndarray,
        nnz_list: np.ndarray,
        perm: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        """Build from raw block arrays; prefer the ``from_*`` constructors.

        Args:
            deg_list: distinct row degrees, strictly descending.
            deg_ind: row offsets of each degree block, length
                ``len(deg_list) + 1``, ending at ``n_rows``.
            col_list: column ids of the non-zeros, in CSDB row order.
            nnz_list: values of the non-zeros, aligned with ``col_list``;
                float32 values stay float32, any other dtype becomes
                float64 (:func:`as_values`).
            perm: ``perm[csdb_row] = original_row``.
            shape: (n_rows, n_cols) in original indexing.
        """
        self._bind(
            _Pattern(
                np.asarray(deg_list, dtype=np.int64),
                np.asarray(deg_ind, dtype=np.int64),
                np.asarray(col_list, dtype=np.int64),
                np.asarray(perm, dtype=np.int64),
                (int(shape[0]), int(shape[1])),
            ),
            as_values(nnz_list),
        )
        self._validate()
        self.block_ptr = self.pattern.block_ptr = np.concatenate(
            [[0], np.cumsum(np.diff(self.deg_ind) * self.deg_list)]
        ).astype(np.int64)

    def _bind(self, pattern: _Pattern, values: np.ndarray) -> None:
        """Put this matrix on ``pattern`` with ``values``; nothing is checked."""
        self.pattern = pattern
        self.deg_list, self.deg_ind = pattern.deg_list, pattern.deg_ind
        self.col_list, self.perm = pattern.col_list, pattern.perm
        self.block_ptr, self.shape = pattern.block_ptr, pattern.shape
        self.nnz_list = values
        self._kernel_view: csr_array | None = None

    def _validate(self) -> None:
        n_rows, n_cols = self.shape
        if len(self.deg_ind) != len(self.deg_list) + 1:
            raise ValueError(
                "deg_ind must have len(deg_list)+1 entries"
                f" ({len(self.deg_list) + 1}), got {len(self.deg_ind)}"
            )
        if len(self.deg_list) and np.any(np.diff(self.deg_list) >= 0):
            raise ValueError("deg_list must be strictly descending")
        if len(self.deg_list) and self.deg_list.min() < 0:
            raise ValueError("degrees must be non-negative")
        if self.deg_ind[0] != 0 or self.deg_ind[-1] != n_rows:
            raise ValueError("deg_ind must start at 0 and end at n_rows")
        if np.any(np.diff(self.deg_ind) < 0):
            raise ValueError("deg_ind must be non-decreasing")
        expected_nnz = int(np.sum(np.diff(self.deg_ind) * self.deg_list))
        if len(self.col_list) != expected_nnz:
            raise ValueError(
                f"col_list length {len(self.col_list)} does not match"
                f" block structure nnz {expected_nnz}"
            )
        if self.col_list.ndim != 1 or self.col_list.shape != self.nnz_list.shape:
            shapes = f"col_list {self.col_list.shape}, nnz_list {self.nnz_list.shape}"
            raise ValueError(f"{shapes}: must be 1-D and equal")
        if len(self.perm) != n_rows:
            raise ValueError(f"perm must have {n_rows} entries")
        if n_rows:
            # to_original_order gathers with mode="clip", which trusts
            # every index: perm must be a permutation of range(n_rows).
            lo, hi = int(self.perm.min()), int(self.perm.max())
            if lo < 0 or hi >= n_rows:
                raise ValueError(
                    f"perm entry {lo if lo < 0 else hi} out of range"
                    f" [0, {n_rows})"
                )
            counts = np.bincount(self.perm, minlength=n_rows)
            if counts.max() > 1:
                row = int(counts.argmax())
                raise ValueError(
                    f"perm is not a permutation of range({n_rows}):"
                    f" row {row} appears {int(counts[row])} times"
                )
        if len(self.col_list) and (
            self.col_list.min() < 0 or self.col_list.max() >= n_cols
        ):
            raise ValueError("column index out of range")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "CSDBMatrix":
        """Convert a CSR matrix by sorting rows into degree blocks."""
        return cls._from_runs(
            csr.indptr[:-1], csr.row_degrees(), csr.indices, csr.data, csr.shape
        )

    @classmethod
    def _from_runs(cls, starts, degrees, cols, vals, shape) -> "CSDBMatrix":
        """Degree-blocked rows; row ``r`` is ``degrees[r]`` entries at ``starts[r]``."""
        perm, deg_list, deg_ind = degree_blocks(degrees)
        # CSDB row i is original row perm[i]'s run of the arrays.
        gather = _run_gather(starts[perm], degrees[perm])
        return cls(deg_list, deg_ind, cols[gather], vals[gather], perm, shape)

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray | None,
        shape: tuple[int, int],
    ) -> "CSDBMatrix":
        """Coordinate triplets (duplicates summed) to CSDB, with no CSR on the way.

        Byte for byte ``from_csr(CSRMatrix.from_coo(...))``: CSR's radix passes
        with each row keyed by its rank in the degree-block order (Fig. 19a),
        re-blocked only if summing duplicates shortened a row.  ``vals=None``
        means every value is 1.
        """
        rows, cols, vals, shape = _check_coo(rows, cols, vals, shape)
        _reserve_working_set(len(rows))
        degrees = np.bincount(rows, minlength=shape[0])
        perm, deg_list, deg_ind = degree_blocks(degrees)
        rank = np.empty(len(perm), np.min_scalar_type(max(len(perm) - 1, 0)))
        rank[perm] = np.arange(len(perm))
        ptr, cols, vals = _sort_coo(rows, rank, degrees[perm], cols, shape[1], vals)
        if len(cols) < len(rows):  # summing duplicates shortened a row
            degrees[perm] = np.diff(ptr)
            return cls._from_runs(ptr[rank], degrees, cols, vals, shape)
        return cls(deg_list, deg_ind, cols, vals, perm, shape)

    # -- structure accessors ----------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros."""
        return int(len(self.nnz_list))

    @property
    def dtype(self) -> np.dtype:
        """Value dtype (float64 or float32); products come out in it."""
        return self.nnz_list.dtype

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of columns."""
        return self.shape[1]

    @property
    def n_blocks(self) -> int:
        """Number of degree blocks (= number of distinct degrees)."""
        return len(self.deg_list)

    @property
    def inv_perm(self) -> np.ndarray:
        """``inv_perm[original_row] = csdb_row`` (cached)."""
        if self.pattern.inv_perm is None:
            inv = np.empty(self.n_rows, dtype=np.int64)
            inv[self.perm] = np.arange(self.n_rows, dtype=np.int64)
            self.pattern.inv_perm = inv
        return self.pattern.inv_perm

    def index_bytes(self) -> int:
        """Bytes of index metadata — O(|distinct degrees|), not O(|V|).

        This is the compression the paper claims over CSR's O(|V|)
        ``indptr``; the permutation is excluded because the paper stores
        the graph pre-relabeled (we keep ``perm`` for API convenience).
        """
        return int(
            self.deg_list.nbytes + self.deg_ind.nbytes + self.block_ptr.nbytes
        )

    def block_of_row(self, csdb_row: int) -> int:
        """Degree-block index containing a CSDB row."""
        if not 0 <= csdb_row < self.n_rows:
            raise IndexError(f"row {csdb_row} out of range [0, {self.n_rows})")
        return int(np.searchsorted(self.deg_ind, csdb_row, side="right") - 1)

    def degree_of_row(self, csdb_row: int) -> int:
        """Degree of a CSDB row (constant within its block)."""
        return int(self.deg_list[self.block_of_row(csdb_row)])

    def row_ptr(self, csdb_row: int) -> int:
        """Eq. 1: offset of a CSDB row's first non-zero in ``col_list``."""
        if csdb_row == self.n_rows:
            return self.nnz
        block = self.block_of_row(csdb_row)
        offset_in_block = csdb_row - self.deg_ind[block]
        return int(self.block_ptr[block] + offset_in_block * self.deg_list[block])

    def row_degrees(self) -> np.ndarray:
        """Per-CSDB-row degrees, expanded from the blocks (cached)."""
        if self.pattern.row_degrees is None:
            self.pattern.row_degrees = np.repeat(
                self.deg_list, np.diff(self.deg_ind)
            ).astype(np.int64)
        return self.pattern.row_degrees

    def nnz_prefix(self) -> np.ndarray:
        """Prefix sums of per-row nnz: ``prefix[i]`` = nnz before row i.

        Length ``n_rows + 1``; the workhorse of the thread allocators.
        """
        if self.pattern.nnz_prefix is None:
            self.pattern.nnz_prefix = np.concatenate(
                [[0], np.cumsum(self.row_degrees())]
            ).astype(np.int64)
        return self.pattern.nnz_prefix

    def nnz_row_ids(self) -> np.ndarray:
        """Original row id of every non-zero, aligned with ``col_list``."""
        return np.repeat(self.perm, self.row_degrees())

    def neighbors(self, original_row: int) -> tuple[np.ndarray, np.ndarray]:
        """(column ids, values) of an *original* row, via Eq. 1 lookup."""
        if not 0 <= original_row < self.n_rows:
            raise IndexError(
                f"row {original_row} out of range [0, {self.n_rows})"
            )
        csdb_row = int(self.inv_perm[original_row])
        lo = self.row_ptr(csdb_row)
        hi = lo + self.degree_of_row(csdb_row)
        return self.col_list[lo:hi], self.nnz_list[lo:hi]

    # -- operators (§III-A: multiplication, addition, subtraction,
    #    transposition) ----------------------------------------------------

    def kernel_view(self) -> csr_array:
        """The whole matrix as a scipy CSR array over CSDB row order (cached).

        ``(nnz_prefix, col_list, nnz_list)`` is a CSR triplet over the
        degree-sorted row space.  scipy validates it (and, on versions
        that narrow indices, converts them to int32) once, here;
        :meth:`spmm_rows` then multiplies the view, or slices of its
        arrays, on every call.  The values are ``nnz_list`` itself; the
        index arrays are the pattern's, shared by every sibling's view.
        """
        if self._kernel_view is None:
            index = self.pattern.kernel_index
            view = csr_array(
                (self.nnz_list, *(index or (self.col_list, self.nnz_prefix()))),
                shape=self.shape,
            )
            if index is None:
                self.pattern.kernel_index = (view.indices, view.indptr)
            self._kernel_view = view
        return self._kernel_view

    def spmm_rows(
        self, dense: np.ndarray, row_start: int, row_end: int
    ) -> np.ndarray:
        """SpMM restricted to CSDB rows ``[row_start, row_end)``.

        This is the unit of work of Algorithm 1: a thread's partition is a
        contiguous run of CSDB rows.  Returns the partial result in CSDB
        row order (shape ``(row_end - row_start, dense.shape[1])``).

        The range is handed to scipy's compiled CSR kernel — one fused
        pass (``get_dense_nnz`` -> multiply -> accumulate) with no
        O(nnz * d) intermediate: the full range is :meth:`kernel_view`
        itself, a sub-range is zero-copy slices of the view's arrays.

        Accumulation contract: every output row is the *sequential* sum
        over its non-zeros in ``col_list`` order, starting from zero,
        with one rounding per multiply and one per add.  A row's bits
        therefore do not depend on which range, executor or worker
        computed it.  The dense operand is cast to :attr:`dtype`, and the
        product comes out in it.
        """
        if not 0 <= row_start <= row_end <= self.n_rows:
            raise ValueError(
                f"invalid row range [{row_start}, {row_end})"
                f" for {self.n_rows} rows"
            )
        dense = np.asarray(dense, dtype=self.dtype)
        if dense.shape[0] != self.n_cols:
            raise ValueError(
                f"dimension mismatch: {self.shape} @ {dense.shape}"
            )
        view = self.kernel_view()
        if row_start == 0 and row_end == self.n_rows:
            return view @ dense
        indptr = view.indptr[row_start : row_end + 1]
        lo, hi = int(indptr[0]), int(indptr[-1])
        rows = csr_array(
            (view.data[lo:hi], view.indices[lo:hi], indptr - lo),
            shape=(row_end - row_start, self.n_cols),
        )
        return rows @ dense

    def to_original_order(
        self, product: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Rows of a CSDB-order ``product`` in original row order.

        One gather, ``out[r] = product[inv_perm[r]]``: random reads and
        sequential writes, where the scatter ``out[perm] = product``
        writes at random.  ``mode="clip"`` skips the index check that
        ``_validate`` made once (perm is a permutation) and that would
        otherwise make ``np.take`` buffer ``out``.  ``out`` must not
        overlap ``product``; without it a new array is returned.
        """
        return np.take(product, self.inv_perm, axis=0, out=out, mode="clip")

    def spmm(self, dense: np.ndarray, verify: bool = False) -> np.ndarray:
        """Full SpMM ``self @ dense`` in original row order.

        Args:
            dense: the dense operand, shape (n_cols, d) or (n_cols,).
            verify: cross-validate the kernel against the from-scratch
                CSR reference (``self.to_csr().spmm``); raises
                :class:`KernelVerificationError` on divergence.  Meant
                for tests and debugging — it pays two more SpMMs.

        The product is in :attr:`dtype`; the dense operand is cast to it.
        """
        dense = np.asarray(dense, dtype=self.dtype)
        squeeze = dense.ndim == 1
        if squeeze:
            dense = dense[:, None]
        out = self.to_original_order(self.spmm_rows(dense, 0, self.n_rows))
        if verify:
            csr = self.to_csr()
            reference = csr.spmm(dense)
            # An entry sums at most deg_list[0] rounded products, so it is
            # within deg_list[0] * eps * (|A| @ |dense|) of the exact value,
            # eps being this dtype's; twice that covers the reference too.
            magnitude = CSRMatrix(
                csr.indptr, csr.indices, np.abs(csr.data), csr.shape
            ).spmm(np.abs(dense))
            terms = int(self.deg_list[0]) if self.n_blocks else 0
            bound = 2 * terms * np.finfo(self.dtype).eps * magnitude
            if not np.all(np.abs(out - reference) <= bound):
                worst = float(np.max(np.abs(out - reference)))
                raise KernelVerificationError(
                    "SpMM kernel diverged from the CSR reference"
                    f" (max abs error {worst:.3e})"
                )
        return out[:, 0] if squeeze else out

    def spmv(self, vector: np.ndarray) -> np.ndarray:
        """Sparse x vector multiplication in original indexing."""
        return self.spmm(np.asarray(vector).reshape(-1))

    def transpose(self) -> "CSDBMatrix":
        """Transposed copy, re-blocked by the transpose's row degrees.

        No comparison sort: the non-zeros are gathered into original-row
        CSR order (:meth:`_row_order`'s one O(nnz) gather) and scipy's
        compiled counting pass turns that CSR into the CSC of the same
        matrix — which *is* the CSR of the transpose, columns ascending
        within a row.  If its index arrays equal the CSR's the pattern
        is symmetric and the transpose is a value-sibling on this
        matrix's pattern; otherwise :meth:`from_csr` re-blocks it.  Either
        way the result is what ``from_coo(col_list, nnz_row_ids(),
        nnz_list, shape^T)`` builds, array for array (``+ 0.0`` included:
        a stored ``-0.0`` comes out ``+0.0``), for a matrix without
        duplicate coordinates, which is what every constructor produces.
        """
        gather, indptr = self._row_order()
        indices = self.col_list[gather]
        by_column = csr_array(
            (self.nnz_list[gather], indices, indptr), shape=self.shape
        ).tocsc()
        if np.array_equal(by_column.indptr, indptr) and np.array_equal(
            by_column.indices, indices
        ):
            values = np.empty(self.nnz, dtype=self.dtype)
            values[gather] = by_column.data + 0.0
            return self.with_values(values)
        transposed = CSDBMatrix.from_csr(
            CSRMatrix(
                by_column.indptr,
                by_column.indices,
                by_column.data + 0.0,
                (self.n_cols, self.n_rows),
            )
        )
        # CSR holds float64; a float32 matrix's values round-trip exactly.
        return transposed.with_values(
            transposed.nnz_list.astype(self.dtype, copy=False)
        )

    def _elementwise(self, other: "CSDBMatrix", sign: float) -> "CSDBMatrix":
        return CSDBMatrix.from_csr(
            self.to_csr()._elementwise(other.to_csr(), sign)
        )

    def __add__(self, other: "CSDBMatrix") -> "CSDBMatrix":
        return self._elementwise(other, 1.0)

    def __sub__(self, other: "CSDBMatrix") -> "CSDBMatrix":
        return self._elementwise(other, -1.0)

    def with_values(self, values: np.ndarray) -> "CSDBMatrix":
        """Same sparsity pattern, new non-zero values.

        The result is a sibling on this matrix's pattern object: nothing
        structural is re-validated and the pattern's caches, present and
        future, are common to both.  ``transpose`` (of an asymmetric
        pattern) and the elementwise operators build fresh patterns.
        float32 values stay float32; any other dtype becomes float64.
        """
        values = as_values(values)
        if values.shape != self.nnz_list.shape:
            raise ValueError(
                f"values must have shape {self.nnz_list.shape},"
                f" got {values.shape}"
            )
        derived = CSDBMatrix.__new__(CSDBMatrix)
        derived._bind(self.pattern, values)
        return derived

    def scale(self, factor: float) -> "CSDBMatrix":
        """Return ``factor * self`` (same block structure)."""
        return self.with_values(self.nnz_list * factor)

    def col_degrees(self) -> np.ndarray:
        """In-degree of every column — the metric of WoFP's degree-based
        prefetcher (§III-C).  Cached: the engine consults it per SpMM."""
        if self.pattern.col_degrees is None:
            self.pattern.col_degrees = np.bincount(
                self.col_list, minlength=self.n_cols
            ).astype(np.int64)
        return self.pattern.col_degrees

    def mark_mutated(self) -> None:
        """Invalidate derived caches after in-place *value* mutation.

        Call this after writing into ``nnz_list`` (e.g. re-weighting
        edges in place): the kernel view is dropped and the matrix moves
        onto a fresh pattern over the same arrays, so its caches and
        plans are rebuilt and executors holding shared copies re-share
        it; its former siblings keep theirs.  Structural mutation
        (``deg_list``, ``deg_ind``, ``col_list``, ``perm``) is not
        supported — build a fresh matrix instead.
        """
        self._bind(
            _Pattern(
                self.deg_list, self.deg_ind, self.col_list, self.perm,
                self.shape, self.block_ptr,
            ),
            self.nnz_list,
        )

    # -- shared memory ------------------------------------------------------

    def to_shared(self, prefix: str | None = None) -> SharedCSDB:
        """Copy the five block arrays into named shared-memory segments.

        Returns the owner-side :class:`SharedCSDB`, whose picklable
        ``handle`` lets worker processes rebuild a zero-copy view via
        :meth:`from_shared`.  The caller owns the segments and must
        ``close()`` the result when done (the shared-memory executor
        does this automatically for engine-driven SpMM).
        """
        import os as _os
        import secrets

        if prefix is None:
            prefix = f"csdb-{_os.getpid()}-{secrets.token_hex(4)}"
        created: list[str] = []
        arrays = {
            "deg_list": self.deg_list,
            "deg_ind": self.deg_ind,
            "col_list": self.col_list,
            "nnz_list": self.nnz_list,
            "perm": self.perm,
        }
        specs: dict[str, SharedArraySpec] = {}
        try:
            for field_name, array in arrays.items():
                spec = create_shared_array(
                    np.ascontiguousarray(array), f"{prefix}-{field_name}"
                )
                created.append(spec.name)
                specs[field_name] = spec
        except BaseException:
            for name in created:
                unlink_segment(name)
            raise
        return SharedCSDB(SharedCSDBHandle(shape=self.shape, **specs))

    @classmethod
    def from_shared(cls, handle: SharedCSDBHandle) -> "CSDBMatrix":
        """Rebuild a matrix over shared segments without copying.

        The five arrays are views into the attached segments; the
        matrix instance keeps the attachments alive for its lifetime.
        Mutating the views would corrupt every attached process — treat
        the result as read-only.
        """
        views = {}
        segments = []
        for field_name, spec in (
            ("deg_list", handle.deg_list),
            ("deg_ind", handle.deg_ind),
            ("col_list", handle.col_list),
            ("nnz_list", handle.nnz_list),
            ("perm", handle.perm),
        ):
            view, segment = attach_shared_array(spec)
            views[field_name] = view
            segments.append(segment)
        matrix = cls(shape=handle.shape, **views)
        matrix._shared_segments = tuple(segments)
        return matrix

    # -- conversions --------------------------------------------------------

    def _row_order(self) -> tuple[np.ndarray, np.ndarray]:
        """``(gather, indptr)`` taking the CSDB arrays to original row order.

        ``col_list[gather]`` / ``nnz_list[gather]`` with ``indptr`` is the
        CSR of the matrix.  Each original row's run is contiguous in the
        CSDB arrays, so this is one O(nnz) gather, not a sort.
        """
        inv_perm = self.inv_perm
        degrees = self.row_degrees()[inv_perm]
        indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        # Original row r is CSDB row inv_perm[r]'s run of the CSDB arrays.
        return _run_gather(self.nnz_prefix()[:-1][inv_perm], degrees), indptr

    def to_csr(self) -> CSRMatrix:
        """Convert back to CSR in original row order."""
        gather, indptr = self._row_order()
        return CSRMatrix(
            indptr, self.col_list[gather], self.nnz_list[gather], self.shape
        )

    def to_dense(self) -> np.ndarray:
        """Dense ndarray copy (testing/small matrices only)."""
        return self.to_csr().to_dense()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSDBMatrix(shape={self.shape}, nnz={self.nnz},"
            f" blocks={self.n_blocks})"
        )
