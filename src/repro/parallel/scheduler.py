"""Simulated thread pool.

Real work (the compiled ``spmm_rows`` kernel) executes serially
in-process; simulated *time* advances per logical thread, so a parallel
phase's completion time is the maximum simulated clock (the makespan)
rather than the serial wall time.

Every execution backend implements one structural protocol
(:class:`KernelExecutor`): the engine hands it the CSDB operand, the
dense operand, the contiguous row ranges the allocator produced, and the
output buffer; the backend is free to run those ranges serially
(:class:`SimulatedExecutor`), on a worker-process pool
(:class:`~repro.parallel.shared.SharedMemoryExecutor`) or on a thread
pool (:class:`~repro.parallel.threads.ThreadsExecutor`).  Each output
row is the sequential sum over its own non-zeros (see
:meth:`~repro.formats.csdb.CSDBMatrix.spmm_rows`), so a row's bits do
not depend on the range that contains it and every backend produces
bit-identical output.

The same contract lets the serial backend *fuse*: adjacent ranges are
merged and run as one ``spmm_rows`` call and one scatter (an engine
multiply is then a single kernel call), unless the caller asks for
per-partition spans (``trace_ctx`` + ``span_sink``) — those carry a
measured kernel wall each, so the traced path keeps one call per range.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

from repro.formats.csdb import CSDBMatrix
from repro.memsim.clock import SimClock
from repro.obs.live import TraceContext, next_span_uid, partition_span_payload


@runtime_checkable
class KernelExecutor(Protocol):
    """The engine's kernel-dispatch seam (one method, three backends)."""

    def run_partitions(
        self,
        matrix: CSDBMatrix,
        dense: np.ndarray,
        ranges: list[tuple[int, int]],
        output: np.ndarray,
        trace_ctx: TraceContext | None = None,
        span_sink: Callable[[dict[str, Any]], Any] | None = None,
    ) -> None:
        """Compute ``matrix @ dense`` for CSDB row ``ranges`` into ``output``.

        ``output`` has shape ``(n_rows, d)`` in *original* row order and
        is fully overwritten: covered rows receive their products, rows
        outside every range are zeroed.

        With ``trace_ctx`` given, the backend measures each partition
        (kernel wall, scatter wall, rows/nnz) and feeds one span payload
        per partition to ``span_sink`` — the trace-propagation seam every
        backend honours so per-partition telemetry is backend-agnostic.
        """
        ...


@dataclass
class ExecutorStats:
    """Warm-path counters a real executor keeps across calls.

    The engine snapshots these around each dispatched ``multiply()``
    and feeds the deltas into its metrics registry, so cache reuse and
    submission overhead are observable per run (``repro report`` /
    ``repro top``) without the executor knowing about metrics at all.

    Attributes:
        plans: batched plan submissions (one per dispatched call per
            participating worker for process pools; one per call for
            thread pools).
        partitions: partition kernels executed.
        shared_cache_hits: calls that reused a cached shared copy of
            the operand matrix (and the mapped scratch segments).
        shared_cache_misses: calls that had to share (or re-share) the
            matrix.
        invalidations: cached shared copies retired because the
            matrix's content hash changed (see
            :meth:`~repro.formats.csdb.CSDBMatrix.mark_mutated`).
        last_submit_wall_s: wall seconds the last call spent staging
            operands and enqueueing its plan (the per-call overhead the
            warm path amortizes).
        last_call_wall_s: wall seconds of the last full call
            (submission + kernels + join).
    """

    plans: int = 0
    partitions: int = 0
    shared_cache_hits: int = 0
    shared_cache_misses: int = 0
    invalidations: int = 0
    last_submit_wall_s: float = 0.0
    last_call_wall_s: float = 0.0


@dataclass
class ThreadTask:
    """One unit of simulated-parallel work.

    Attributes:
        thread_id: logical thread executing the task.
        work: callable performing the real computation (may be None for
            cost-only simulation).
        cost_seconds: simulated duration charged to the thread's clock.
    """

    thread_id: int
    cost_seconds: float
    work: Callable[[], None] | None = None


def _fuse_adjacent(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge each run of ranges where one starts at the previous one's end."""
    fused: list[tuple[int, int]] = []
    for row_start, row_end in ranges:
        if fused and fused[-1][1] == row_start:
            fused[-1] = (fused[-1][0], row_end)
        else:
            fused.append((row_start, row_end))
    return fused


class SimulatedExecutor:
    """Serial backend: real kernels in-process, parallel time simulated.

    Executes :class:`ThreadTask` batches against a :class:`SimClock`
    (the historical API) and implements the :class:`KernelExecutor`
    seam by running partition kernels serially in submission order
    (adjacent partitions fused into one kernel call when nobody consumes
    per-partition spans) — the default, fully deterministic backend.
    """

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock

    def run_partitions(
        self,
        matrix: CSDBMatrix,
        dense: np.ndarray,
        ranges: list[tuple[int, int]],
        output: np.ndarray,
        trace_ctx: TraceContext | None = None,
        span_sink: Callable[[dict[str, Any]], Any] | None = None,
    ) -> None:
        """Serial execution of the kernel-dispatch seam.

        Without a span consumer, adjacent ranges are merged into one
        kernel call and one scatter; the buffer is zero-filled only
        when the ranges leave a row uncovered.
        """
        ranges = [(int(a), int(b)) for a, b in ranges if b > a]
        traced = trace_ctx is not None and span_sink is not None
        if not traced:
            ranges = _fuse_adjacent(ranges)
        if ranges != [(0, matrix.n_rows)]:
            output[:] = 0.0
        nnz_prefix = matrix.nnz_prefix() if traced else None
        for row_start, row_end in ranges:
            kernel_start = time.perf_counter()
            partial = matrix.spmm_rows(dense, row_start, row_end)
            kernel_end = time.perf_counter()
            output[matrix.perm[row_start:row_end]] = partial
            if nnz_prefix is not None:
                scatter_end = time.perf_counter()
                span_sink(
                    partition_span_payload(
                        trace_ctx,
                        row_start=row_start,
                        row_end=row_end,
                        nnz=int(nnz_prefix[row_end] - nnz_prefix[row_start]),
                        kernel_wall_s=kernel_end - kernel_start,
                        scatter_wall_s=scatter_end - kernel_end,
                        uid=next_span_uid(),
                    )
                )

    def run(self, tasks: list[ThreadTask]) -> float:
        """Run all tasks; returns the makespan after a barrier.

        Tasks assigned to the same thread are serialized on its clock;
        tasks on different threads overlap.  A barrier synchronizes all
        clocks at the end, modelling the join at the end of a parallel
        SpMM phase.
        """
        if self.clock is None:
            raise ValueError("SimulatedExecutor.run requires a SimClock")
        for task in tasks:
            if not 0 <= task.thread_id < self.clock.n_threads:
                raise ValueError(
                    f"thread_id {task.thread_id} out of range"
                    f" [0, {self.clock.n_threads})"
                )
            if task.work is not None:
                task.work()
            self.clock.advance(task.thread_id, task.cost_seconds)
        return self.clock.synchronize()
