"""Thread allocation for parallel SpMM: RR, WaTA and the paper's EaTA.

A *workload partition* is a contiguous run of CSDB rows handed to one
thread (``rst``/``red``/``bst`` of Algorithm 1).  Four allocators are
provided:

- :class:`RoundRobinAllocator` (RR) — equal row counts per thread, the
  default of parallel toolkits; ignores skew entirely.
- :class:`NaturalOrderRoundRobinAllocator` (natural-RR) — RR over the
  original, unsorted row order (the CSR-system behaviour).
- :class:`WorkloadBalancedAllocator` (WaTA) — equal nnz per thread
  (Huang et al.); balances bytes but not access randomness, so tail
  latency remains (Fig. 13a).
- :class:`EntropyAwareAllocator` (EaTA, Algorithm 2) — derates each
  row's work by the Eq. 5 bandwidth factor of its workload's entropy
  (Eq. 3) so the *predicted completion times* equalize, balancing work
  and tail latency simultaneously.

RR's cut (:func:`round_robin_bounds`) and EaTA's first pass
(:func:`entropy_aware_bounds`) are module functions, so the sharded
store (:mod:`repro.shard`) cuts its node ranges with the same code.

All allocators are O(|V|) online over the prefix-sum arrays of an
:class:`AllocatorContext`, which every ``allocate`` call builds afresh.
An allocation reads only the matrix's sparsity pattern, so reuse lives
one level up: :class:`~repro.core.spmm.SpMMEngine` keeps the partitions
it computed per pattern object and allocates once per pattern, not per
matrix or product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.csdb import CSDBMatrix
from repro.memsim.costmodel import bandwidth_factor
from repro.obs.metrics import MetricsRegistry, MetricUpdate

#: Histogram buckets for normalized entropy Z(H) in [0, 1].
Z_ENTROPY_BUCKETS = tuple(i / 10.0 for i in range(1, 11))


def record_allocation_metrics(
    partitions: "list[WorkloadPartition]",
    metrics: MetricsRegistry,
    allocator_name: str = "",
) -> list[MetricUpdate]:
    """Per-partition entropy/workload telemetry for one allocation.

    Returns the updates bound to ``metrics``' series, in recording
    order; calling each ``update(value)`` records the allocation once.
    Gauges carry the latest allocation's per-thread view (what EaTA's
    Eq. 7 rescaling balanced); the nnz-imbalance gauge (max/mean) is the
    straggler indicator behind the Fig. 13 tail latencies.
    """
    updates: list[MetricUpdate] = []
    for p in partitions:
        thread = p.thread_id
        updates += [
            (metrics.gauge("eata.partition.z_entropy", thread=thread).set,
             p.z_entropy),
            (metrics.gauge("eata.partition.nnz", thread=thread).set,
             p.nnz_count),
            (metrics.histogram(
                "eata.z_entropy_dist", buckets=Z_ENTROPY_BUCKETS
            ).observe, p.z_entropy),
        ]
    updates += [
        (metrics.counter(
            "eata.allocations", allocator=allocator_name or "?"
        ).inc, 1.0),
        (metrics.gauge("eata.partitions").set, len(partitions)),
    ]
    nnz_counts = [p.nnz_count for p in partitions]
    mean_nnz = sum(nnz_counts) / max(len(nnz_counts), 1)
    if mean_nnz > 0:
        updates.append(
            (metrics.gauge("eata.nnz_imbalance").set, max(nnz_counts) / mean_nnz)
        )
    return updates


@dataclass(frozen=True)
class WorkloadPartition:
    """The workload assigned to one thread (Algorithm 1's inputs).

    Attributes:
        thread_id: owning logical thread.
        row_start / row_end: CSDB row range [rst, red).
        nnz_start / nnz_end: edge-array range [bst, bst + W_i).
        entropy: Eq. 3 entropy H_i of the workload (nats).
        z_entropy: normalized entropy Z(H_i) = H_i / log|V|, in [0, 1].
        scatter: the paper's inherent scatter factor W_sca
            (mean nnz per row divided by |V|).
    """

    thread_id: int
    row_start: int
    row_end: int
    nnz_start: int
    nnz_end: int
    entropy: float
    z_entropy: float
    scatter: float
    #: False for partitions over non-contiguous CSDB rows (the
    #: natural-order allocator); such partitions carry explicit counts.
    contiguous: bool = True
    rows_override: int | None = None
    nnz_override: int | None = None

    @property
    def n_rows(self) -> int:
        """Rows_i — number of sparse-matrix rows in the workload."""
        if self.rows_override is not None:
            return self.rows_override
        return self.row_end - self.row_start

    @property
    def nnz_count(self) -> int:
        """W_i — number of non-zeros in the workload."""
        if self.nnz_override is not None:
            return self.nnz_override
        return self.nnz_end - self.nnz_start


class AllocatorContext:
    """Prefix-sum arrays for entropy/workload queries on row ranges.

    Eq. 3 over rows [a, b) with degrees ``d_j`` and total ``W`` reduces to
    ``H = log W - (sum d_j log d_j) / W``, so two prefix arrays (nnz and
    ``d log d``) answer any range query in constant time, and
    :meth:`fields` answers every range of a split in one array pass.
    """

    def __init__(self, matrix: CSDBMatrix) -> None:
        self.matrix = matrix
        self.n_rows = matrix.n_rows
        degrees = matrix.row_degrees().astype(np.float64)
        self.nnz_prefix = matrix.nnz_prefix()
        # 0 log 0 = 0: an empty row contributes 0 * log 1.
        dlogd = degrees * np.log(np.maximum(degrees, 1.0))
        self.dlogd_prefix = np.concatenate([[0.0], np.cumsum(dlogd)])
        self.log_v = float(np.log(max(self.n_rows, 2)))

    def fields(
        self, starts: np.ndarray, ends: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Every range ``[starts[i], ends[i])``'s partition fields at once.

        Returns ``(nnz_start, nnz_end, entropy, z_entropy, scatter)``:
        the edge-array bounds, Eq. 3 entropy (0 for an empty workload,
        clipped at 0), Z(H) = H / log|V| (clipped at 1) and W_sca (0 for
        no rows).
        """
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        nnz_start = self.nnz_prefix[starts]
        nnz_end = self.nnz_prefix[ends]
        w = nnz_end - nnz_start
        rows = ends - starts
        # Empty ranges divide by 1 instead of 0 and are masked below; a
        # non-empty range's arithmetic is untouched.
        some_w = np.maximum(w, 1)
        dlogd = self.dlogd_prefix[ends] - self.dlogd_prefix[starts]
        entropy = np.log(some_w) - dlogd / some_w
        entropy = np.where((w == 0) | (entropy < 0.0), 0.0, entropy)
        z_entropy = entropy / self.log_v
        z_entropy = np.where(z_entropy > 1.0, 1.0, z_entropy)
        scatter = (w / np.maximum(rows, 1)) / max(self.matrix.n_cols, 1)
        scatter = np.where(rows == 0, 0.0, scatter)
        return nnz_start, nnz_end, entropy, z_entropy, scatter

    def partitions(self, bounds) -> list[WorkloadPartition]:
        """Thread ``t``'s workload is rows ``[bounds[t], bounds[t + 1])``."""
        bounds = np.asarray(bounds, dtype=np.int64)
        starts, ends = bounds[:-1], bounds[1:]
        columns = (starts, ends, *self.fields(starts, ends))
        return [
            WorkloadPartition(thread_id, *values)
            for thread_id, values in enumerate(
                zip(*(column.tolist() for column in columns))
            )
        ]


def equal_share_bounds(
    prefix: np.ndarray, n_rows: int, n_threads: int
) -> np.ndarray:
    """Row bounds cutting a per-row prefix sum into ``n_threads`` equal shares.

    Cut ``t`` is the first row where ``prefix`` (non-decreasing, length
    ``n_rows + 1``) reaches ``t / n_threads`` of its total.  The targets
    rise and never pass the total, so the cuts rise and stay within
    ``[0, n_rows]``; the bounds run from 0 to ``n_rows``.
    """
    # ``np.linspace(0, total, n_threads + 1)[1:-1]``, bit for bit.
    targets = np.arange(1, n_threads) * (prefix[-1] / n_threads)
    cuts = np.searchsorted(prefix, targets, side="left")
    return np.concatenate([[0], cuts, [n_rows]]).astype(np.int64)


#: EaTA's constant per-row cost term (read_index), in nnz units.
ROW_OVERHEAD_NNZ = 2.0


def _check_beta(beta: float) -> None:
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")


def _check_parts(n_parts: int) -> None:
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")


def _equal_cost_bounds(cost: np.ndarray, n_parts: int) -> np.ndarray:
    """Row bounds of the equal-quantile split of a per-row cost."""
    prefix = np.concatenate([[0.0], np.cumsum(cost)])
    return equal_share_bounds(prefix, len(cost), n_parts)


def round_robin_bounds(n_rows: int, n_parts: int) -> np.ndarray:
    """RR's cut: bounds of ``n_parts`` equal-row runs over ``n_rows`` rows."""
    _check_parts(n_parts)
    return np.linspace(0, n_rows, n_parts + 1).astype(np.int64)


def entropy_aware_bounds(
    degrees: np.ndarray, n_parts: int, beta: float = 0.41
) -> np.ndarray:
    """EaTA's first pass: bounds equalizing the per-row Eq. 5 cost proxy.

    Each row of degree ``deg`` in a nominal workload
    ``W_nom = total / n_parts`` sits in a window of normalized entropy
    ``z = log(W_nom / deg) / log|V|``, so its predicted cost is
    ``deg / g(z)`` (Eq. 5 bandwidth degradation) plus a constant per-row
    term (read_index); prefix sums of that proxy yield equal-time
    bounds in O(|V|).  ``beta`` is BW_rand / BW_seq of the device
    serving the dense operand.  Returns ``n_parts + 1`` bounds from 0 to
    ``len(degrees)``; trailing parts may be empty on degenerate inputs.
    """
    _check_parts(n_parts)
    _check_beta(beta)
    degrees = np.asarray(degrees, dtype=np.float64)
    log_v = float(np.log(max(len(degrees), 2)))
    w_nominal = max(float(degrees.sum()) / n_parts, 1.0)
    z = np.log(np.maximum(w_nominal / np.maximum(degrees, 1.0), 1.0))
    z = np.minimum(z / log_v, 1.0)
    cost = degrees / bandwidth_factor(z, beta) + ROW_OVERHEAD_NNZ
    return _equal_cost_bounds(cost, n_parts)


class ThreadAllocator:
    """Base class: splits a CSDB matrix's rows across threads."""

    #: Approximate bookkeeping operations per row scanned, used by the
    #: engine to charge the (sub-1%) allocation overhead of §IV-C.
    overhead_ops_per_row: float = 1.0

    name = "base"

    def allocate(
        self, matrix: CSDBMatrix, n_threads: int
    ) -> list[WorkloadPartition]:
        """Return exactly ``n_threads`` partitions covering all rows."""
        raise NotImplementedError

    @staticmethod
    def _check(n_threads: int) -> None:
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")


class RoundRobinAllocator(ThreadAllocator):
    """RR: contiguous equal-*row* chunks (the parallel-toolkit default)."""

    name = "RR"
    overhead_ops_per_row = 0.0

    def allocate(
        self, matrix: CSDBMatrix, n_threads: int
    ) -> list[WorkloadPartition]:
        self._check(n_threads)
        return AllocatorContext(matrix).partitions(
            round_robin_bounds(matrix.n_rows, n_threads)
        )


class NaturalOrderRoundRobinAllocator(ThreadAllocator):
    """RR over the *original* row order — the CSR-system behaviour.

    ProNE-style systems split unsorted CSR rows into equal contiguous
    chunks.  Mixing degrees balances the per-chunk byte counts (unlike
    RR over degree-sorted CSDB rows) but every chunk inherits the
    graph's full degree mix, so all of them run at the scattered end of
    the Eq. 5 bandwidth curve.  Partitions are non-contiguous in CSDB
    space and carry explicit counts; the engine computes the numeric
    result with a single full pass instead of per-partition slices.
    """

    name = "natural-RR"
    overhead_ops_per_row = 0.0

    def allocate(
        self, matrix: CSDBMatrix, n_threads: int
    ) -> list[WorkloadPartition]:
        self._check(n_threads)
        log_v = float(np.log(max(matrix.n_rows, 2)))
        degrees_natural = matrix.row_degrees()[matrix.inv_perm].astype(
            np.float64
        )
        boundaries = round_robin_bounds(matrix.n_rows, n_threads)
        partitions: list[WorkloadPartition] = []
        for t in range(n_threads):
            chunk = degrees_natural[boundaries[t] : boundaries[t + 1]]
            w = float(chunk.sum())
            rows = len(chunk)
            if w > 0:
                positive = chunk[chunk > 0]
                entropy = max(
                    float(np.log(w) - (positive * np.log(positive)).sum() / w),
                    0.0,
                )
            else:
                entropy = 0.0
            scatter = (w / rows) / matrix.n_cols if rows else 0.0
            partitions.append(
                WorkloadPartition(
                    thread_id=t,
                    row_start=0,
                    row_end=0,
                    nnz_start=0,
                    nnz_end=0,
                    entropy=entropy,
                    z_entropy=min(entropy / log_v, 1.0),
                    scatter=scatter,
                    contiguous=False,
                    rows_override=rows,
                    nnz_override=int(w),
                )
            )
        return partitions


class WorkloadBalancedAllocator(ThreadAllocator):
    """WaTA: equal-*nnz* chunks (total_workload / #threads each)."""

    name = "WaTA"
    overhead_ops_per_row = 0.5

    def allocate(
        self, matrix: CSDBMatrix, n_threads: int
    ) -> list[WorkloadPartition]:
        self._check(n_threads)
        ctx = AllocatorContext(matrix)
        return ctx.partitions(
            equal_share_bounds(ctx.nnz_prefix, ctx.n_rows, n_threads)
        )


class EntropyAwareAllocator(ThreadAllocator):
    """EaTA (Algorithm 2): entropy-aware workload rescaling.

    Algorithm 2 computes each thread's balanced share ``W_i``, measures
    its entropy ``H_i`` (Eq. 3) and rescales the share by Eq. 7 against
    the running average objective entropy ``H_i^p``:

        W_i^p = W_i * (H_p * g(H_p)) / (H_i * g(H_i)),
        g(H)  = 1 - Z(H) + beta * Z(H)

    where ``beta = BW_rand / BW_seq`` of the dense-operand device.  A
    high-entropy (scattered) candidate workload therefore shrinks —
    its thread would otherwise be the straggler — and the freed work
    flows to later, lower-entropy workloads.  :meth:`allocate` equalizes
    the same time model without the online loop (see there).

    Args:
        beta: random/sequential read-bandwidth ratio of the device serving
            the dense matrix (PM in heterogeneous mode).
    """

    name = "EaTA"
    overhead_ops_per_row = 2.0

    def __init__(self, beta: float = 0.41) -> None:
        _check_beta(beta)
        self.beta = beta

    def allocate(
        self, matrix: CSDBMatrix, n_threads: int
    ) -> list[WorkloadPartition]:
        """Split rows so the Eq. 4/5 *predicted times* equalize.

        The paper calibrates Eq. 4's constant ``K`` on hardware and then
        rescales workloads online via Eq. 7; without hardware we equalize
        the same time model directly: :func:`entropy_aware_bounds` splits
        a per-row cost proxy into equal quantiles, then two feedback
        sweeps re-weight each row by its partition's *measured* entropy
        and re-split.
        """
        self._check(n_threads)
        ctx = AllocatorContext(matrix)
        if n_threads == 1 or ctx.n_rows == 0:
            return ctx.partitions([0] + [ctx.n_rows] * n_threads)
        degrees = matrix.row_degrees().astype(np.float64)
        bounds = entropy_aware_bounds(degrees, n_threads, self.beta)
        # The first pass estimates each row's entropy from a nominal
        # window; two sweeps with the measured one suffice in practice.
        for _ in range(2):
            z_entropy = ctx.fields(bounds[:-1], bounds[1:])[3]
            rates = np.repeat(
                1.0 / bandwidth_factor(z_entropy, self.beta), np.diff(bounds)
            )
            bounds = _equal_cost_bounds(
                degrees * rates + ROW_OVERHEAD_NNZ, n_threads
            )
        return ctx.partitions(bounds)


def make_allocator(scheme: object, beta: float = 0.41) -> ThreadAllocator:
    """Factory mapping an :class:`AllocationScheme` to an allocator."""
    from repro.core.config import AllocationScheme

    scheme = AllocationScheme(scheme)
    if scheme is AllocationScheme.ROUND_ROBIN:
        return RoundRobinAllocator()
    if scheme is AllocationScheme.NATURAL_ROUND_ROBIN:
        return NaturalOrderRoundRobinAllocator()
    if scheme is AllocationScheme.WORKLOAD_BALANCED:
        return WorkloadBalancedAllocator()
    return EntropyAwareAllocator(beta=beta)
