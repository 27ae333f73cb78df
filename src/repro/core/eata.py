"""Thread allocation for parallel SpMM: RR, WaTA and the paper's EaTA.

A *workload partition* is a contiguous run of CSDB rows handed to one
thread (``rst``/``red``/``bst`` of Algorithm 1).  Three allocators are
provided:

- :class:`RoundRobinAllocator` (RR) — equal row counts per thread, the
  default of parallel toolkits; ignores skew entirely.
- :class:`WorkloadBalancedAllocator` (WaTA) — equal nnz per thread
  (Huang et al.); balances bytes but not access randomness, so tail
  latency remains (Fig. 13a).
- :class:`EntropyAwareAllocator` (EaTA, Algorithm 2) — measures each
  candidate workload's entropy (Eq. 3) and rescales it by Eq. 7 so the
  *predicted completion times* equalize, balancing work and tail latency
  simultaneously.

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

    @property
    def is_empty(self) -> bool:
        """True when the thread received no work."""
        return self.nnz_count == 0 and self.n_rows == 0


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
        self.total_nnz = int(self.nnz_prefix[-1])

    def workload(self, row_start: int, row_end: int) -> int:
        """W_i: nnz in rows [row_start, row_end)."""
        return int(self.nnz_prefix[row_end] - self.nnz_prefix[row_start])

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

    def entropy(self, row_start: int, row_end: int) -> float:
        """Eq. 3 entropy of rows [row_start, row_end), in nats."""
        return self.fields([row_start], [row_end])[2].item()

    def z_entropy(self, row_start: int, row_end: int) -> float:
        """Normalized entropy Z(H) = H / log|V|, clipped to [0, 1]."""
        return self.fields([row_start], [row_end])[3].item()

    def scatter(self, row_start: int, row_end: int) -> float:
        """The paper's W_sca: mean nnz per row over |V| columns."""
        return self.fields([row_start], [row_end])[4].item()

    def row_at_workload(self, target_nnz: float, row_start: int = 0) -> int:
        """Smallest row end such that rows [row_start, end) hold at least
        ``target_nnz`` non-zeros (clamped to [row_start+1, n_rows])."""
        goal = self.nnz_prefix[row_start] + target_nnz
        end = int(np.searchsorted(self.nnz_prefix, goal, side="left"))
        return min(max(end, row_start + 1), self.n_rows)

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
        ctx = AllocatorContext(matrix)
        return ctx.partitions(
            np.linspace(0, ctx.n_rows, n_threads + 1).astype(np.int64)
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
        boundaries = np.linspace(0, matrix.n_rows, n_threads + 1).astype(
            np.int64
        )
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

    For each thread the dynamic balanced share ``W_i`` is computed, its
    entropy ``H_i`` measured (Eq. 3), and the share rescaled by Eq. 7
    against the running average objective entropy ``H_i^p``:

        W_i^p = W_i * (H_p * g(H_p)) / (H_i * g(H_i)),
        g(H)  = 1 - Z(H) + beta * Z(H)

    where ``beta = BW_rand / BW_seq`` of the dense-operand device.  A
    high-entropy (scattered) candidate workload therefore shrinks —
    its thread would otherwise be the straggler — and the freed work
    flows to later, lower-entropy workloads.

    Args:
        beta: random/sequential read-bandwidth ratio of the device serving
            the dense matrix (PM in heterogeneous mode).
        rescale_floor / rescale_ceiling: clamp on the Eq. 7 ratio to keep
            the online scheme robust on degenerate matrices.
    """

    name = "EaTA"
    overhead_ops_per_row = 2.0

    def __init__(
        self,
        beta: float = 0.41,
        row_overhead_nnz: float = 2.0,
        rescale_floor: float = 0.25,
        rescale_ceiling: float = 4.0,
    ) -> None:
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        if row_overhead_nnz < 0:
            raise ValueError(
                f"row_overhead_nnz must be >= 0, got {row_overhead_nnz}"
            )
        if not 0.0 < rescale_floor <= 1.0 <= rescale_ceiling:
            raise ValueError(
                "need rescale_floor in (0, 1] and rescale_ceiling >= 1,"
                f" got {rescale_floor}, {rescale_ceiling}"
            )
        self.beta = beta
        self.row_overhead_nnz = row_overhead_nnz
        self.rescale_floor = rescale_floor
        self.rescale_ceiling = rescale_ceiling

    def _g(self, z: float) -> float:
        """Eq. 5's bandwidth-degradation factor 1 - Z + beta*Z."""
        return 1.0 - z + self.beta * z

    def _time_proxy(self, ctx: AllocatorContext, row_start: int, row_end: int) -> float:
        """H * g(Z(H)) — the Eq. 7 denominator for a row range."""
        h = ctx.entropy(row_start, row_end)
        return h * self._g(min(h / ctx.log_v, 1.0))

    def allocate(
        self, matrix: CSDBMatrix, n_threads: int
    ) -> list[WorkloadPartition]:
        """Split rows so the Eq. 4/5 *predicted times* equalize.

        The paper calibrates Eq. 4's constant ``K`` on hardware and then
        rescales workloads online via Eq. 7; without hardware we equalize
        the same time model directly.  Each row of degree ``deg`` in a
        nominal workload ``W_nom = total/#threads`` sits in a window of
        normalized entropy ``z = log(W_nom/deg)/log|V|``, so its predicted
        cost is ``deg / g(z)`` (Eq. 5 bandwidth degradation) plus a
        constant per-row term (read_index).  Prefix sums of that proxy
        yield equal-time boundaries in O(|V|).
        """
        self._check(n_threads)
        ctx = AllocatorContext(matrix)
        if n_threads == 1 or ctx.n_rows == 0:
            return ctx.partitions([0] + [ctx.n_rows] * n_threads)
        degrees = matrix.row_degrees().astype(np.float64)
        w_nominal = max(ctx.total_nnz / n_threads, 1.0)
        z = np.log(np.maximum(w_nominal / np.maximum(degrees, 1.0), 1.0))
        z = np.minimum(z / ctx.log_v, 1.0)
        g = 1.0 - z + self.beta * z
        proxy = degrees / g + self.row_overhead_nnz
        bounds = self._split_by_proxy(ctx, proxy, n_threads)
        # Feedback refinement: re-weight each row by its partition's
        # *measured* entropy (the per-row estimate above uses a nominal
        # window), then re-split.  Two sweeps suffice in practice.
        for _ in range(2):
            z_entropy = ctx.fields(bounds[:-1], bounds[1:])[3]
            rates = np.repeat(1.0 / self._g(z_entropy), np.diff(bounds))
            refined = degrees * rates + self.row_overhead_nnz
            bounds = self._split_by_proxy(ctx, refined, n_threads)
        return ctx.partitions(bounds)

    @staticmethod
    def _split_by_proxy(
        ctx: AllocatorContext,
        proxy: np.ndarray,
        n_threads: int,
    ) -> np.ndarray:
        """Row bounds of the equal-quantile split of a per-row cost proxy."""
        proxy_prefix = np.concatenate([[0.0], np.cumsum(proxy)])
        return equal_share_bounds(proxy_prefix, ctx.n_rows, n_threads)

    def allocate_algorithm2(
        self, matrix: CSDBMatrix, n_threads: int
    ) -> list[WorkloadPartition]:
        """Literal Algorithm 2: online Eq. 7 rescaling of dynamic shares.

        Kept for fidelity and ablation; :meth:`allocate` (the prefix-sum
        equalizer of the same time model) is the production path.
        """
        self._check(n_threads)
        ctx = AllocatorContext(matrix)
        if n_threads == 1:
            return ctx.partitions([0, ctx.n_rows])

        # Initial objective entropy H_i^p: the average entropy of the
        # plain equal-workload split (Algorithm 2, line 2).
        targets = np.linspace(0, ctx.total_nnz, n_threads + 1)
        split_rows = np.searchsorted(ctx.nnz_prefix, targets, side="left")
        split_rows[0], split_rows[-1] = 0, ctx.n_rows
        initial_entropies = [
            ctx.entropy(int(split_rows[t]), int(split_rows[t + 1]))
            for t in range(n_threads)
            if split_rows[t + 1] > split_rows[t]
        ]
        h_objective = float(np.mean(initial_entropies)) if initial_entropies else 0.0

        bounds = [0]
        allocated_h_sum = 0.0
        row = 0
        for t in range(n_threads):
            remaining_threads = n_threads - t
            if t == n_threads - 1 or row >= ctx.n_rows:
                row = ctx.n_rows
                bounds.append(row)
                continue
            remaining_w = ctx.total_nnz - ctx.nnz_prefix[row]
            w_i = remaining_w / remaining_threads
            # Candidate balanced workload and its entropy (lines 4-5).
            candidate_end = ctx.row_at_workload(w_i, row)
            candidate_proxy = self._time_proxy(ctx, row, candidate_end)
            objective_proxy = h_objective * self._g(
                min(h_objective / ctx.log_v, 1.0)
            )
            # Eq. 7 rescaling (line 6), clamped for robustness.
            if candidate_proxy > 0.0 and objective_proxy > 0.0:
                ratio = objective_proxy / candidate_proxy
            else:
                ratio = 1.0
            ratio = min(max(ratio, self.rescale_floor), self.rescale_ceiling)
            w_p = max(w_i * ratio, 1.0)
            end = ctx.row_at_workload(w_p, row)
            # Never starve the remaining threads of rows.
            max_end = ctx.n_rows - (remaining_threads - 1)
            end = min(end, max(max_end, row + 1))
            bounds.append(end)
            # Update the running objective (lines 9-12).
            allocated_h_sum += ctx.entropy(row, end)
            h_objective = allocated_h_sum / (t + 1)
            row = end
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
