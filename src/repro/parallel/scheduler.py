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
single kernel call.

Every backend writes its ranges' products into contiguous slices of one
CSDB-order product and hands that to
:meth:`~repro.formats.csdb.CSDBMatrix.to_original_order`, which maps it
to the caller's row order with one gather; no backend reads the row
permutation itself.  A fused pass over every row needs no product
buffer: the kernel's result already is one.

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
        output: np.ndarray,
    ) -> None:
        """Compute ``matrix @ dense`` for CSDB row ``ranges`` into ``output``.

        ``output`` has shape ``(n_rows, d)`` in *original* row order and
        is fully overwritten: covered rows receive their products, rows
        outside every range are zeroed.
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


def _fuse_adjacent(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
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
    return ranges, _fuse_adjacent(ranges) == [(0, n_rows)]


class SimulatedExecutor:
    """Serial backend: real kernels in-process, parallel time simulated.

    Runs partition kernels serially in submission order, adjacent
    partitions fused into one kernel call — the default, fully
    deterministic backend.
    """

    def run_partitions(
        self,
        matrix: CSDBMatrix,
        dense: np.ndarray,
        ranges: list[tuple[int, int]],
        output: np.ndarray,
    ) -> None:
        """Serial execution of the kernel-dispatch seam."""
        fused = _fuse_adjacent(ranges)
        if fused == [(0, matrix.n_rows)]:
            product = matrix.spmm_rows(dense, 0, matrix.n_rows)
        else:
            # Uncovered rows stay zero.
            product = np.zeros(output.shape)
            for row_start, row_end in fused:
                product[row_start:row_end] = matrix.spmm_rows(
                    dense, row_start, row_end
                )
        matrix.to_original_order(product, output)
