"""Thread-pool parallel execution of SpMM partitions.

The zero-copy sibling of :mod:`repro.parallel.shared`
(``OMeGaConfig.parallel.backend = ExecBackend.THREADS``): partitions run
on a persistent :class:`concurrent.futures.ThreadPoolExecutor` whose
workers read the CSDB arrays and the dense operand *directly* — no
shared segments, no operand staging, no pickling.  Per-call overhead is
one closure submission per partition.

Why threads help even on GIL builds: ``spmm_rows`` is one call into
scipy's compiled CSR kernel, which releases the GIL for the duration of
its C loop, so partition kernels genuinely overlap.  On free-threaded
CPython the workers are fully concurrent.  This mirrors OMeGa §III-B's
thread model directly: one thread per partition over a shared
in-memory matrix, no inter-process transport at all.

Invariants shared with the other backends:

- **Bit-identical output.**  Same fused ``spmm_rows`` kernel, one
  contiguous CSDB row range per partition, written into its own
  contiguous slice of a CSDB-order product — threads write disjoint
  slices, so no synchronization is needed — and mapped to the caller's
  row order by one gather after the join.  The result equals serial bit
  for bit.
- **Simulated time untouched.**  The executor only runs kernels.
- **No telemetry.**  The seam carries none: the engine times the whole
  call and records the partition spans itself, so a traced multiply
  runs exactly these instructions.
- **Fork safety.**  Thread pools do not survive ``fork()``; a hook
  abandons every pool in forked children so shard hosts start fresh.

Failure semantics differ from the process pool deliberately: a raising
partition propagates its exception directly (there is no crashed
process to tear down, no segments to unlink) and the pool stays usable.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.formats.csdb import CSDBMatrix
from repro.parallel.scheduler import ExecutorStats, normalize_ranges


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

    @property
    def started(self) -> bool:
        return self._pool is not None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._closed:
            raise RuntimeError("executor is closed")
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.n_workers,
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
        output: np.ndarray,
    ) -> None:
        """Execute CSDB row ranges on the thread pool into ``output``.

        ``output`` (original row order, shape ``(n_rows, d)``) receives
        the joined result; rows not covered by any range are zeroed.
        Threads fill disjoint contiguous slices of one CSDB-order
        product; after the join this thread maps it to ``output`` with
        :meth:`~repro.formats.csdb.CSDBMatrix.to_original_order`.

        Raises:
            Exception: whatever a partition kernel raised, re-raised on
                the caller thread.  The pool remains usable.
        """
        call_start = time.perf_counter()
        dense = np.ascontiguousarray(dense, dtype=matrix.dtype)
        ranges, covered = normalize_ranges(ranges, matrix.n_rows)
        if not ranges:
            output[:] = 0.0
            return
        pool = self._ensure_pool()
        # Pre-warm the lazily cached structural arrays on this thread;
        # workers then only read them (no benign-but-wasteful race to
        # build the same cache concurrently).
        matrix.nnz_prefix()
        matrix.row_degrees()
        matrix.kernel_view()
        # CSDB-order product; uncovered rows stay zero.
        alloc = np.empty if covered else np.zeros
        product = alloc(output.shape, dtype=matrix.dtype)

        def run_range(row_start: int, row_end: int) -> None:
            product[row_start:row_end] = matrix.spmm_rows(
                dense, row_start, row_end
            )

        futures = [pool.submit(run_range, a, b) for a, b in ranges]
        self.stats.plans += 1
        self.stats.partitions += len(ranges)
        # Threads read the operands in place: every call "hits".
        self.stats.shared_cache_hits += 1
        self.stats.last_submit_wall_s = time.perf_counter() - call_start
        first: BaseException | None = None
        for future in futures:
            try:
                future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                first = first if first is not None else exc
        if first is None:
            matrix.to_original_order(product, output)
        self.stats.last_call_wall_s = time.perf_counter() - call_start
        if first is not None:
            raise first


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
