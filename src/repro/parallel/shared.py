"""Shared-memory parallel execution of SpMM partitions.

This is the real multicore backend behind the engine's kernel-dispatch
seam (``OMeGaConfig.parallel.backend = ExecBackend.SHARED_MEMORY``): the
EaTA partitions that the cost model schedules onto *logical* threads are
executed concurrently by a pool of worker *processes* operating on
zero-copy views of the CSDB arrays (``multiprocessing.shared_memory``
via :meth:`~repro.formats.csdb.CSDBMatrix.to_shared`).

Design invariants:

- **Bit-identical output.**  Workers run exactly the same fused
  ``spmm_rows`` kernel as the serial path, one contiguous CSDB row range
  per partition, and write their partial results into disjoint
  contiguous slices of one shared CSDB-order buffer
  (``out[rst:red] = partial``); the parent maps that buffer to the
  caller's row order with one gather.  Each row is the sequential sum
  over its own non-zeros, so the parallel result equals the serial
  result bit for bit.
- **Simulated time is untouched.**  The executor only runs kernels; the
  engine charges Eq. 2 costs to its per-thread times, and takes their
  makespan, exactly as under the simulated backend.
- **Warm path.**  The shared copy of each operand matrix and the mapped
  dense/output scratch segments persist across calls, keyed by matrix
  identity and checked against the matrix's pattern object: the second
  and every later ``multiply()`` of a Chebyshev run pays only the dense
  copy and one batched plan enqueue per worker.  In-place mutation is
  announced via :meth:`~repro.formats.csdb.CSDBMatrix.mark_mutated`,
  which moves the matrix onto a fresh pattern and makes the executor
  retire and re-share it on its next call.
- **Batched submission.**  Each call enqueues *one* plan message per
  worker carrying that worker's whole share of the partition plan
  (largest-nnz-first assignment onto the least-loaded worker) and
  receives one coalesced ack, instead of a queue round-trip per
  partition.
- **Crash safety.**  A worker death or in-worker exception surfaces as a
  typed :class:`WorkerCrashError`; the pool tears down and every shared
  segment it created is unlinked before the error propagates.
- **Fork safety.**  A forked child (e.g. a shard host) inherits the
  parent's executors but must never shut down the parent's workers or
  unlink its segments: an ``os.register_at_fork`` hook abandons every
  executor in the child (bookkeeping cleared, nothing touched), so
  child-side ``close()``/``__del__`` are no-ops and the next
  :func:`get_shared_executor` in the child builds a fresh pool.
- **No telemetry.**  Workers run kernels and nothing else: no clock
  reads, no span payloads on the acks, no stream files.  The engine
  times the whole call and records the partition spans itself, so a
  traced multiply runs exactly these instructions.

The pool is lazy (no processes are spawned until the first dispatched
kernel) and process-wide pools are shared across engines via
:func:`get_shared_executor`, so a ProNE pipeline's dozens of SpMM calls
reuse both the workers and the shared copy of each operand matrix.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue as queue_module
import secrets
import time
import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.formats.csdb import (
    CSDBMatrix,
    SharedArraySpec,
    SharedCSDB,
    SharedCSDBHandle,
    attach_shared_array,
    unlink_segment,
)
from repro.parallel.scheduler import ExecutorStats, normalize_ranges

#: Default per-call completion deadline; a pool that produces neither
#: results nor progress for this long is declared crashed.
DEFAULT_CALL_TIMEOUT_S = 300.0


class WorkerCrashError(RuntimeError):
    """A shared-memory worker died or failed; the pool was torn down.

    After this error the executor is closed: its shared segments are
    unlinked and its workers terminated.  A fresh executor (or the next
    :func:`get_shared_executor` call) starts a new pool.
    """


def mp_context():
    """Fork where available (cheap workers); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _worker_main(jobs, results) -> None:
    """Worker loop: attach shared operands once, run whole plans forever.

    Each worker owns a private job queue and receives *plans* — one
    message per ``run_partitions`` call carrying every partition
    assigned to this worker (plain tuples, picklable):

    - ``("plan", call_id, slot, handle, dense_spec, out_spec, tasks,
      retired)`` — run the plan's tasks in order.  ``tasks`` is a tuple
      of ``(job_id, row_start, row_end, crash)`` sorted by ``job_id``;
      ``crash`` marks injected hard-exits (crash-safety tests).
      ``retired`` names segments to drop — every plan carries it (empty
      plans included), so all workers release retired attachments
      deterministically.
    - ``None`` — shut down.

    One coalesced ack per plan:

    - ``("ok", call_id, slot, n_done)`` — all tasks done;
    - ``("error", call_id, slot, message)`` — a task raised.

    A worker that dies sends nothing; the coordinator's liveness poll
    reports it with its exit code.
    """
    matrices: dict[str, CSDBMatrix] = {}
    scratch: dict[str, tuple] = {}  # name -> (ndarray view, segment)

    def drop(names) -> None:
        for name in names:
            matrices.pop(name, None)
            scratch.pop(name, None)

    while True:
        plan = jobs.get()
        if plan is None:
            return
        _, call_id, slot, handle, dense_spec, out_spec, tasks, retired = plan
        drop(retired)
        n_done = 0
        job_id = 0
        dense = out = None
        try:
            if tasks:
                matrix = matrices.get(handle.key)
                if matrix is None:
                    matrix = CSDBMatrix.from_shared(handle)
                    matrices[handle.key] = matrix
                if dense_spec.name not in scratch:
                    scratch[dense_spec.name] = attach_shared_array(dense_spec)
                if out_spec.name not in scratch:
                    scratch[out_spec.name] = attach_shared_array(out_spec)
                # Re-view per plan: the segment is cached, but its
                # logical shape can change between calls (d varies
                # across pipeline stages while the byte capacity stays
                # sufficient).
                dense_seg = scratch[dense_spec.name][1]
                out_seg = scratch[out_spec.name][1]
                dense = np.ndarray(
                    dense_spec.shape, dtype=np.dtype(dense_spec.dtype),
                    buffer=dense_seg.buf,
                )
                out = np.ndarray(
                    out_spec.shape, dtype=np.dtype(out_spec.dtype),
                    buffer=out_seg.buf,
                )
            for job_id, row_start, row_end, crash in tasks:
                if crash:
                    os._exit(17)
                out[row_start:row_end] = matrix.spmm_rows(
                    dense, row_start, row_end
                )
                n_done += 1
            dense = out = None
            results.put(("ok", call_id, slot, n_done))
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            try:
                dense = out = None
                results.put(
                    (
                        "error",
                        call_id,
                        slot,
                        f"partition {job_id}: {type(exc).__name__}: {exc}",
                    )
                )
            except Exception:
                os._exit(1)


class _ScratchSegment:
    """A reusable named shared buffer owned by the executor."""

    def __init__(self, name: str, nbytes: int) -> None:
        self.segment = shared_memory.SharedMemory(
            name=name, create=True, size=max(nbytes, 1)
        )
        self.capacity = max(nbytes, 1)

    def view(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=self.segment.buf)

    def release(self) -> None:
        name = self.segment.name
        try:
            self.segment.close()
        except BufferError:  # pragma: no cover - view still exported
            pass
        unlink_segment(name)


class SharedMemoryExecutor:
    """Executes contiguous SpMM partitions on a worker-process pool.

    Implements the same ``run_partitions`` seam as the serial
    :class:`~repro.parallel.scheduler.SimulatedExecutor`; the engine
    picks one per :class:`~repro.core.config.ParallelConfig`.
    """

    def __init__(
        self,
        n_workers: int = 2,
        call_timeout_s: float = DEFAULT_CALL_TIMEOUT_S,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.call_timeout_s = call_timeout_s
        self.stats = ExecutorStats()
        self._ctx = mp_context()
        self._prefix = f"omega-{os.getpid()}-{secrets.token_hex(4)}"
        self._workers: list = []
        self._job_queues: list = []
        self._results = None
        self._call_seq = 0
        self._scratch_seq = 0
        # id(matrix) -> (weakref to matrix, owner-side SharedCSDB,
        #                weakref to the matrix's pattern at share time)
        self._matrices: dict[int, tuple] = {}
        self._scratch: dict[str, _ScratchSegment] = {}
        self._retired: list[str] = []
        self._closed = False
        _ALL_EXECUTORS.add(self)

    # -- pool lifecycle ---------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_workers(self) -> None:
        if self._closed:
            raise WorkerCrashError("executor is closed")
        if self._workers:
            return
        self._job_queues = [self._ctx.Queue() for _ in range(self.n_workers)]
        self._results = self._ctx.Queue()
        for slot in range(self.n_workers):
            proc = self._ctx.Process(
                target=_worker_main,
                args=(self._job_queues[slot], self._results),
                daemon=True,
            )
            proc.start()
            self._workers.append(proc)

    def close(self) -> None:
        """Shut down workers and unlink every owned segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._workers:
            for jobs in self._job_queues:
                try:
                    jobs.put(None)
                except Exception:
                    break
            for proc in self._workers:
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=5.0)
            # Each job queue's feeder thread exits with the queue, not
            # with the pool: join it so a closed pool leaves no thread.
            for jobs in self._job_queues:
                jobs.close()
                jobs.join_thread()
        self._release_shared()
        self._workers = []
        self._job_queues = []

    def _abandon(self) -> None:
        """Forget workers and segments without touching either.

        For forked children only: the parent owns the worker processes
        and the shared segments, so the child must not join, terminate,
        close, or unlink anything — it just drops its inherited
        bookkeeping so ``close()``/``__del__`` become no-ops.
        """
        self._closed = True
        self._workers = []
        self._job_queues = []
        self._results = None
        self._matrices = {}
        self._scratch = {}
        self._retired = []

    def _kill_workers(self) -> None:
        for proc in self._workers:
            if proc.is_alive():
                proc.terminate()
        for proc in self._workers:
            proc.join(timeout=5.0)
        self._workers = []
        self._job_queues = []

    def _release_shared(self) -> None:
        """Unlink every owned segment, even when some releases fail.

        Teardown often runs on an already-failing path (a worker crash,
        a double fault); one segment refusing to close must not leave
        the rest leaked in ``/dev/shm``.  Every release is attempted,
        the bookkeeping is cleared regardless, and the first failure is
        re-raised once the sweep is complete.
        """
        first: BaseException | None = None
        for entry in self._matrices.values():
            try:
                entry[1].close()
            except BaseException as exc:  # noqa: BLE001 - sweep all
                first = first if first is not None else exc
        self._matrices = {}
        for seg in self._scratch.values():
            try:
                seg.release()
            except BaseException as exc:  # noqa: BLE001 - sweep all
                first = first if first is not None else exc
        self._scratch = {}
        for name in self._retired:
            try:
                unlink_segment(name)
            except BaseException as exc:  # noqa: BLE001 - sweep all
                first = first if first is not None else exc
        self._retired = []
        if first is not None:
            raise first

    def _fail(self, message: str) -> WorkerCrashError:
        """Tear the pool down after a failure; returns the typed error."""
        self._closed = True
        self._kill_workers()
        try:
            self._release_shared()
        except BaseException:  # noqa: BLE001 - already failing; swept
            pass
        return WorkerCrashError(message)

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- operand staging --------------------------------------------------

    def _shared_matrix(self, matrix: CSDBMatrix) -> SharedCSDBHandle:
        """Owner-side shared copy of a matrix, cached across calls.

        Cache key is the live instance (``id`` guarded by a weakref) and
        the value recorded at share time includes a weakref to the
        matrix's pattern:

        - same instance, same pattern → reuse the existing segments (the
          warm path — no copying, workers keep their attachments);
        - same instance, new pattern (``mark_mutated`` after in-place
          edits) → retire the stale segments and re-share;
        - instance died → segments retired on the next call.

        Mutating array contents *without* calling ``mark_mutated`` is
        not detected and is documented as unsupported.
        """
        for key, entry in list(self._matrices.items()):
            if entry[0]() is None:
                self._retired.extend(s.name for s in entry[1].handle.specs)
                entry[1].close()
                del self._matrices[key]
        entry = self._matrices.get(id(matrix))
        if entry is not None:
            if entry[2]() is not matrix.pattern:
                self._retired.extend(s.name for s in entry[1].handle.specs)
                entry[1].close()
                del self._matrices[id(matrix)]
                self.stats.invalidations += 1
            else:
                self.stats.shared_cache_hits += 1
                return entry[1].handle
        self.stats.shared_cache_misses += 1
        shared_mat = matrix.to_shared(
            prefix=f"{self._prefix}-m{len(self._matrices)}-"
            f"{secrets.token_hex(2)}"
        )
        self._matrices[id(matrix)] = (
            weakref.ref(matrix), shared_mat, weakref.ref(matrix.pattern)
        )
        return shared_mat.handle

    def _scratch_spec(
        self, tag: str, shape: tuple[int, ...], dtype: np.dtype
    ) -> SharedArraySpec:
        """Reusable scratch buffer spec, regrown when too small."""
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        current = self._scratch.get(tag)
        if current is not None and current.capacity < nbytes:
            self._retired.append(current.segment.name)
            current.release()
            current = None
            del self._scratch[tag]
        if current is None:
            self._scratch_seq += 1
            current = _ScratchSegment(
                f"{self._prefix}-{tag}-{self._scratch_seq}", nbytes
            )
            self._scratch[tag] = current
        return SharedArraySpec(
            name=current.segment.name, shape=tuple(shape), dtype=str(dtype)
        )

    # -- execution --------------------------------------------------------

    def run_partitions(
        self,
        matrix: CSDBMatrix,
        dense: np.ndarray,
        ranges: list[tuple[int, int]],
        output: np.ndarray,
        _inject_crash: bool = False,
    ) -> None:
        """Execute CSDB row ranges on the pool into ``output``.

        ``output`` (original row order, shape ``(n_rows, d)``) receives
        the joined result; rows not covered by any range are zeroed.
        Workers fill contiguous slices of the shared CSDB-order output
        segment, and this process gathers it into ``output`` with
        :meth:`~repro.formats.csdb.CSDBMatrix.to_original_order`.

        Submission is batched: partitions are assigned largest-nnz-first
        onto the least-loaded worker and each worker receives *one* plan
        message (and sends one coalesced ack), so per-call queue traffic
        is O(workers) instead of O(partitions).

        Raises:
            WorkerCrashError: a worker died, failed, or the call timed
                out; the pool is torn down and its segments released.
        """
        call_start = time.perf_counter()
        if self._closed:
            raise WorkerCrashError("executor is closed")
        dense = np.ascontiguousarray(dense, dtype=matrix.dtype)
        ranges, covered = normalize_ranges(ranges, matrix.n_rows)
        if not ranges:
            output[:] = 0.0
            return
        self._ensure_workers()
        handle = self._shared_matrix(matrix)
        dense_spec = self._scratch_spec("dense", dense.shape, matrix.dtype)
        out_spec = self._scratch_spec("out", output.shape, matrix.dtype)
        dense_view = self._scratch["dense"].view(dense.shape, matrix.dtype)
        dense_view[:] = dense
        del dense_view
        if not covered:
            out_view = self._scratch["out"].view(output.shape, matrix.dtype)
            out_view[:] = 0.0
            del out_view
        retired = tuple(self._retired)
        self._retired = []

        self._call_seq += 1
        call_id = self._call_seq

        # LPT assignment: largest partition (by nnz) onto the least
        # loaded worker; deterministic (stable sort, lowest slot wins
        # ties).  Each worker runs its tasks in job-id order.
        prefix = matrix.nnz_prefix()
        jobs = [
            (
                job_id,
                row_start,
                row_end,
                _inject_crash,
                int(prefix[row_end] - prefix[row_start]),
            )
            for job_id, (row_start, row_end) in enumerate(ranges)
        ]
        assignment: list[list[tuple]] = [[] for _ in self._workers]
        loads = [0] * len(self._workers)
        for job in sorted(jobs, key=lambda j: -j[4]):
            slot = min(range(len(loads)), key=loads.__getitem__)
            assignment[slot].append(job[:4])
            loads[slot] += max(job[4], 1)
        # Every worker gets a plan — empty ones included, so retired
        # segment drops reach all workers deterministically.
        for slot, tasks in enumerate(assignment):
            tasks.sort(key=lambda t: t[0])
            self._job_queues[slot].put(
                (
                    "plan",
                    call_id,
                    slot,
                    handle,
                    dense_spec,
                    out_spec,
                    tuple(tasks),
                    retired,
                )
            )
        self.stats.plans += len(self._workers)
        self.stats.partitions += len(ranges)
        self.stats.last_submit_wall_s = time.perf_counter() - call_start
        self._await(call_id, len(self._workers))
        out_view = self._scratch["out"].view(output.shape, matrix.dtype)
        matrix.to_original_order(out_view, output)
        del out_view
        self.stats.last_call_wall_s = time.perf_counter() - call_start

    def _await(self, call_id: int, n_plans: int) -> None:
        """Barrier: collect one ack per plan, watching worker liveness."""
        done = 0
        deadline = time.monotonic() + self.call_timeout_s
        while done < n_plans:
            try:
                ack = self._results.get(timeout=0.1)
            except queue_module.Empty:
                dead = [p for p in self._workers if not p.is_alive()]
                if dead:
                    codes = sorted({p.exitcode for p in dead})
                    raise self._fail(
                        f"{len(dead)} shared-memory worker(s) died"
                        f" (exit codes {codes}) with"
                        f" {n_plans - done} plan(s) outstanding"
                    )
                if time.monotonic() > deadline:
                    raise self._fail(
                        f"shared-memory call timed out after"
                        f" {self.call_timeout_s:.0f}s"
                        f" ({n_plans - done} plan(s) outstanding)"
                    )
                continue
            if ack[1] != call_id:
                continue  # stale ack from an abandoned call
            if ack[0] == "error":
                raise self._fail(
                    f"shared-memory worker failed on {ack[3]}"
                )
            done += 1


#: Process-wide executor pools, one per worker count.
_POOLS: dict[int, SharedMemoryExecutor] = {}

#: Every live executor (pooled or direct), for the fork hook.
_ALL_EXECUTORS: "weakref.WeakSet[SharedMemoryExecutor]" = weakref.WeakSet()


def get_shared_executor(n_workers: int) -> SharedMemoryExecutor:
    """Shared pool for ``n_workers`` (re-created if a crash closed it)."""
    pool = _POOLS.get(n_workers)
    if pool is None or pool.closed:
        pool = SharedMemoryExecutor(n_workers)
        _POOLS[n_workers] = pool
    return pool


def shutdown_shared_executors() -> None:
    """Close every process-wide pool (tests / interpreter exit).

    Idempotent; also registered with :mod:`atexit`, so leaked worker
    processes and shared segments are reclaimed even when callers never
    shut down explicitly.
    """
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


def _abandon_executors_after_fork() -> None:
    """Fork hook: a child must not touch the parent's pools.

    Clears the pool registry and abandons every inherited executor so
    child-side ``close()``/``atexit``/``__del__`` cannot shut down the
    parent's workers or unlink its segments.  The child's first
    :func:`get_shared_executor` call builds a fresh pool.
    """
    for pool in list(_ALL_EXECUTORS):
        pool._abandon()
    _POOLS.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX in CI
    os.register_at_fork(after_in_child=_abandon_executors_after_fork)

atexit.register(shutdown_shared_executors)
