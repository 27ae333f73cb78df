"""Thread-pool parallel execution of SpMM partitions — the default backend.

The zero-copy sibling of :mod:`repro.parallel.shared`
(``OMeGaConfig.parallel.backend = ExecBackend.THREADS``, the default):
one contiguous block of rows per worker, each block's kernel reading the
CSDB arrays and the dense operand *directly* — no shared segments, no
operand staging, no pickling — and writing its rows straight into one
product.

A product of every row is cut into ``n_workers`` contiguous,
nnz-balanced blocks (the engine's adjacent EaTA ranges fused, then cut),
over whichever view the serial product would read: the kernel view in
CSDB row order, or the caller-order view once the matrix has relaid
itself (:meth:`~repro.formats.csdb.CSDBMatrix.caller_view`).  The
last block runs on the calling thread, so a call submits
``n_workers - 1`` closures and the pool holds that many threads; a
block no pool thread has begun by the time the calling thread is done
runs there too, so a late wake-up costs no wait.  A block is the
kernel run over a slice of the view's row pointers and the view's whole
arrays, so nothing of the matrix is copied or built per block.  A
product under :data:`THREADS_MIN_WORK` multiply-adds runs the serial
path itself and never touches the pool.

Why threads help even on GIL builds: a block is one call into scipy's
compiled CSR kernel, which releases the GIL for the duration of its C
loop, so the blocks genuinely overlap.  On free-threaded CPython the
workers are fully concurrent.  This mirrors OMeGa §III-B's thread model
directly: contiguous partitions on all hardware threads over a shared
in-memory matrix, no inter-process transport at all.

Invariants shared with the other backends:

- **Bit-identical output.**  Same kernel, every output row the
  sequential sum over its non-zeros in ``col_list`` order whatever block
  computes it; threads write disjoint row slices of one zero-filled
  product, so no synchronization is needed.  A CSDB-order product is
  mapped to the caller's row order by one gather after the join, the
  same gather the serial product makes; a caller-order one needs none.
- **Simulated time untouched.**  The executor only runs kernels.
- **No telemetry.**  The seam carries none: the engine times the whole
  call and records the partition spans itself, so a traced multiply
  runs exactly these instructions.
- **Fork safety.**  Thread pools do not survive ``fork()``; a hook
  abandons every pool in forked children so shard hosts start fresh.

Failure semantics differ from the process pool deliberately: a raising
block propagates its exception directly once every block has joined
(there is no crashed process to tear down, no segments to unlink) and
the pool stays usable.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.formats.csdb import CSDBMatrix
from repro.parallel.scheduler import ExecutorStats, fuse_adjacent, run_serial

#: Products under this many multiply-adds (``nnz * d``) run the serial
#: path on the calling thread: below it, handing a block to a pool
#: thread and joining it costs about what the block's kernel saves.
#: Threaded against serial, median speed-up by work (R-MAT-10 to -14,
#: edge factor 8, float32 and float64, d = 4 to 128, medians of 100
#: alternating calls, 2 workers on a 2-vCPU host): 0.71x at 2^17,
#: 0.90x at 2^18, 0.97x at 2^19, 1.07x at 2^20, 1.21x at 2^21 and
#: 1.30x at 2^22.
THREADS_MIN_WORK = 1 << 20


class ThreadsExecutor:
    """Executes contiguous SpMM partitions on a persistent thread pool.

    Implements the same ``run_partitions`` seam as
    :class:`~repro.parallel.scheduler.SimulatedExecutor` and
    :class:`~repro.parallel.shared.SharedMemoryExecutor`; the engine
    picks one per :class:`~repro.core.config.ParallelConfig`.
    """

    def __init__(self, n_workers: int = 2) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.stats = ExecutorStats()
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False

    # -- pool lifecycle ---------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._closed:
            raise RuntimeError("executor is closed")
        with self._lock:
            if self._pool is None:
                # The calling thread runs the last block itself.
                self._pool = ThreadPoolExecutor(
                    max_workers=self.n_workers - 1,
                    thread_name_prefix="omega-spmm",
                )
            return self._pool

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def _abandon(self) -> None:
        """Forget the pool without joining it (forked child only).

        Worker threads do not survive ``fork()`` — only the forking
        thread exists in the child — so joining the inherited pool
        would deadlock.  Drop the bookkeeping; the parent still owns
        the real threads.
        """
        self._closed = True
        self._pool = None

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- execution --------------------------------------------------------

    def run_partitions(
        self,
        matrix: CSDBMatrix,
        dense: np.ndarray,
        ranges: list[tuple[int, int]],
    ) -> np.ndarray:
        """Execute CSDB row ranges in blocks on the pool; returns the result.

        The result (a new array in original row order, shape
        ``(n_rows, d)``) has zeros in rows not covered by any range.
        Each run of adjacent ranges — one run, ``(0, n_rows)``, for a
        plan covering every row — is cut into ``n_workers`` nnz-balanced
        blocks (:func:`balanced_blocks`).  Blocks fill disjoint row
        slices of one zero-filled product: the last on this thread,
        then any that no pool thread has begun.

        Raises:
            Exception: whatever a block kernel raised, re-raised on the
                caller thread once every block has joined.  The pool
                remains usable.
        """
        work = matrix.nnz * dense.shape[1]
        if self.n_workers == 1 or work < THREADS_MIN_WORK:
            return run_serial(matrix, dense, ranges)
        call_start = time.perf_counter()
        dense = np.ascontiguousarray(dense, dtype=matrix.dtype)
        fused = fuse_adjacent(ranges)
        covered = fused == [(0, matrix.n_rows)]
        view = matrix.caller_view() if covered else None
        caller_order = view is not None
        if view is None:
            view = matrix.kernel_view()
        blocks = [
            (run_start + a, run_start + b)
            for run_start, run_end in fused
            for a, b in balanced_blocks(
                view.indptr[run_start : run_end + 1], self.n_workers
            )
        ]
        product = np.zeros((matrix.n_rows, dense.shape[1]), dtype=matrix.dtype)
        if not blocks:
            return product

        # Pool threads take blocks from the front, this thread from the
        # back: its own block first, then any no pool thread has begun.
        pending = deque(blocks)

        def run_block(row_start: int, row_end: int) -> None:
            matrix.spmm_rows(
                dense, row_start, row_end,
                caller_order=caller_order, out=product[row_start:row_end],
            )

        def claim() -> None:
            try:
                row_start, row_end = pending.popleft()
            except IndexError:
                return  # the calling thread ran it
            run_block(row_start, row_end)

        pool = self._ensure_pool() if len(blocks) > 1 else None
        futures = [pool.submit(claim) for _ in blocks[:-1]]
        self.stats.plans += 1
        self.stats.partitions += len(blocks)
        # Threads read the operands in place: every call "hits".
        self.stats.shared_cache_hits += 1
        self.stats.last_submit_wall_s = time.perf_counter() - call_start
        errors: list[BaseException] = []
        try:
            while True:
                try:
                    block = pending.pop()
                except IndexError:
                    break  # every block is taken
                run_block(*block)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
        for future in futures:
            if future.cancel():
                continue  # never started: its block ran here
            try:
                future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        self.stats.last_call_wall_s = time.perf_counter() - call_start
        if errors:
            raise errors[0]
        if caller_order:
            return product
        if covered:
            return matrix.gather_product(product)
        return matrix.to_original_order(product)


def balanced_blocks(
    indptr: np.ndarray, n_blocks: int
) -> list[tuple[int, int]]:
    """The rows of ``indptr`` (row pointers, one more than rows) cut into
    at most ``n_blocks`` contiguous ranges of about equal non-zeros,
    relative to its first row (empty ranges dropped).

    Cut ``k`` is the first row whose pointer reaches ``k / n_blocks`` of
    the way from the first pointer to the last.
    """
    n_rows = len(indptr) - 1
    first, last = int(indptr[0]), int(indptr[-1])
    targets = first + np.arange(1, n_blocks) * ((last - first) / n_blocks)
    cuts = np.searchsorted(indptr, targets).tolist()
    bounds = [0, *cuts, n_rows]
    return [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


#: Process-wide thread pools, one per worker count.
_THREAD_POOLS: dict[int, ThreadsExecutor] = {}


def get_threads_executor(n_workers: int) -> ThreadsExecutor:
    """Shared thread pool for ``n_workers`` (re-created if closed)."""
    pool = _THREAD_POOLS.get(n_workers)
    if pool is None or pool.closed:
        pool = ThreadsExecutor(n_workers)
        _THREAD_POOLS[n_workers] = pool
    return pool


def shutdown_threads_executors() -> None:
    """Close every process-wide thread pool (tests / interpreter exit)."""
    for pool in list(_THREAD_POOLS.values()):
        pool.close()
    _THREAD_POOLS.clear()


def _abandon_pools_after_fork() -> None:
    for pool in list(_THREAD_POOLS.values()):
        pool._abandon()
    _THREAD_POOLS.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX in CI
    os.register_at_fork(after_in_child=_abandon_pools_after_fork)

atexit.register(shutdown_threads_executors)
