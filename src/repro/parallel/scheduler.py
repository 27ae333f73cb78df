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
merged and run as one ``spmm_rows`` call, so an engine multiply is a
single kernel call; the threads backend fuses them too, then cuts one
block per worker.

The process pool writes its ranges' products into contiguous slices
of one CSDB-order product and hands that to
:meth:`~repro.formats.csdb.CSDBMatrix.to_original_order`, which maps it
to the caller's row order with one gather; so do the serial and threads
backends for ranges that leave a row uncovered.  The serial fused pass
over every row asks the kernel for the product in the caller's order
(``caller_order=True``), which becomes the result itself: once the
matrix's caller-order view pays back, there is no gather and no second
buffer.  The threads backend's blocks of every row follow the same
view.  No backend reads the row permutation itself.

The seam carries no telemetry.  A backend executes the same
instructions whether or not a tracer is attached; the engine times the
whole dispatch and records the per-partition spans itself (see
:meth:`~repro.core.spmm.SpMMEngine.multiply`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.formats.csdb import CSDBMatrix


@runtime_checkable
class KernelExecutor(Protocol):
    """The engine's kernel-dispatch seam (one method, three backends)."""

    def run_partitions(
        self,
        matrix: CSDBMatrix,
        dense: np.ndarray,
        ranges: list[tuple[int, int]],
    ) -> np.ndarray:
        """Compute ``matrix @ dense`` for CSDB row ``ranges``; returns it.

        The result is a new array of shape ``(n_rows, d)`` in *original*
        row order: covered rows hold their products, rows outside every
        range are zero.
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
            participating worker for process pools; one per call that
            runs blocks for thread pools, none for one run serially).
        partitions: partition kernels executed (blocks, for thread
            pools).
        shared_cache_hits: calls that reused a cached shared copy of
            the operand matrix (and the mapped scratch segments).
        shared_cache_misses: calls that had to share (or re-share) the
            matrix.
        invalidations: cached shared copies retired because
            :meth:`~repro.formats.csdb.CSDBMatrix.mark_mutated` moved
            the matrix onto a new pattern since it was shared.
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


def fuse_adjacent(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Non-empty ranges as int pairs, each run where one starts at the
    previous one's end merged into one."""
    fused: list[tuple[int, int]] = []
    for row_start, row_end in ranges:
        if row_end <= row_start:
            continue
        row_start, row_end = int(row_start), int(row_end)
        if fused and fused[-1][1] == row_start:
            fused[-1] = (fused[-1][0], row_end)
        else:
            fused.append((row_start, row_end))
    return fused


def normalize_ranges(
    ranges: list[tuple[int, int]], n_rows: int
) -> tuple[list[tuple[int, int]], bool]:
    """Non-empty ranges as int pairs, and whether they cover every row.

    A backend zero-fills its buffer only when they do not: covered rows
    are overwritten by their products anyway.
    """
    ranges = [(int(a), int(b)) for a, b in ranges if b > a]
    return ranges, fuse_adjacent(ranges) == [(0, n_rows)]


def run_serial(
    matrix: CSDBMatrix, dense: np.ndarray, ranges: list[tuple[int, int]]
) -> np.ndarray:
    """The kernel-dispatch seam run serially on the calling thread.

    Each run of adjacent ranges is one kernel call; a run over every row
    is the caller-order product itself.
    """
    fused = fuse_adjacent(ranges)
    if fused == [(0, matrix.n_rows)]:
        return matrix.spmm_rows(dense, 0, matrix.n_rows, caller_order=True)
    # Uncovered rows stay zero.
    product = np.zeros((matrix.n_rows, dense.shape[1]), dtype=matrix.dtype)
    for row_start, row_end in fused:
        matrix.spmm_rows(
            dense, row_start, row_end, out=product[row_start:row_end]
        )
    return matrix.to_original_order(product)


class SimulatedExecutor:
    """Serial backend: real kernels in-process, parallel time simulated.

    Runs partition kernels serially in submission order, adjacent
    partitions fused into one kernel call — the fully deterministic
    single-threaded backend (:func:`run_serial`).
    """

    def run_partitions(
        self,
        matrix: CSDBMatrix,
        dense: np.ndarray,
        ranges: list[tuple[int, int]],
    ) -> np.ndarray:
        """Serial execution of the kernel-dispatch seam."""
        return run_serial(matrix, dense, ranges)
