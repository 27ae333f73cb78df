"""WoFP — the workload feature-aware prefetcher (§III-C).

For each thread's allocated workload, WoFP picks *which rows of the dense
matrix B* to pin in DRAM so that the scattered ``get_dense_nnz`` accesses
of Algorithm 1 hit fast memory instead of PM:

- **frequency-based** prefetcher (dense workloads,
  ``W_i / Rows_i >= |V| * eta``): counts column-index occurrences within
  the workload in a back-end thread and keeps the top-M most frequent in
  a key-value map — dynamic, more precise, higher maintenance cost;
- **degree-based** prefetcher (the common sparse case): statically pins
  the rows of B whose vertices have the highest in-degree — a higher
  in-degree means the row index recurs with higher probability, and
  counting in-degrees is nearly free.

``M = W_i * sigma`` bounds each workload's prefetcher (the paper's σ).
The prefetcher never changes the workload split decided by EaTA, only the
memory tier its dense reads are served from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.eata import WorkloadPartition
from repro.formats.csdb import CSDBMatrix
from repro.obs.metrics import MetricsRegistry, MetricUpdate

#: Histogram buckets for per-workload hit fractions (0..1 in 0.1 steps).
HIT_FRACTION_BUCKETS = tuple(i / 10.0 for i in range(1, 11))


def record_prefetch_metrics(
    plan: "PrefetchPlan | DisabledPrefetchPlan",
    partition: WorkloadPartition,
    dense_cols: int,
    metrics: MetricsRegistry,
) -> list[MetricUpdate]:
    """One workload's WoFP decisions as updates of a metrics registry.

    Returns them bound to ``metrics``' series, in recording order (see
    :func:`~repro.core.eata.record_allocation_metrics`).  Hits are the
    dense accesses served from the DRAM-pinned top-M set; misses pay the
    PM gather.  ``wofp.pinned_bytes`` is the DRAM the top-M structures
    reserve — what an over-large σ inflates (Fig. 19c).
    """
    w = partition.nnz_count
    hit_nnz = plan.hit_fraction * w
    updates: list[MetricUpdate] = [
        (metrics.counter("wofp.plans", kind=plan.kind).inc, 1.0),
        (metrics.counter("wofp.hit_nnz").inc, hit_nnz),
        (metrics.counter("wofp.miss_nnz").inc, w - hit_nnz),
        (metrics.counter("wofp.pinned_bytes").inc, plan.pinned_bytes(dense_cols)),
        (metrics.counter("wofp.maintenance_ops").inc, plan.maintenance_ops),
    ]
    if w > 0:
        histogram = metrics.histogram(
            "wofp.hit_fraction", buckets=HIT_FRACTION_BUCKETS
        )
        updates.append((histogram.observe, plan.hit_fraction))
    return updates


def _descending(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(-keys, kind="stable")`` of non-negative integer keys.

    Sorted as ``max - keys`` in the narrowest unsigned type holding them:
    the same stable order, by radix sort when the keys stay below 2**16
    (a workload's column counts, most in-degrees).
    """
    top = keys.max()
    return (top - keys).astype(np.min_scalar_type(top)).argsort(kind="stable")


@dataclass(frozen=True)
class PrefetchPlan:
    """Prefetch decisions for one workload.

    Attributes:
        kind: ``"frequency"`` or ``"degree"``.
        capacity: number of dense-matrix rows actually pinned in DRAM
            (at most the workload's distinct columns).
        reserved_entries: M = W_i * sigma — the size of the top-M
            structure the prefetcher allocates and maintains.  This is
            what an over-large sigma inflates (Fig. 19c's right branch).
        hot_columns: the pinned column ids (rows of B).
        hit_fraction: fraction of the workload's dense accesses served
            from the pinned set.
        maintenance_ops: bookkeeping operations (hash updates/evictions)
            charged as prefetcher overhead.
    """

    kind: str
    capacity: int
    reserved_entries: int
    hot_columns: np.ndarray
    hit_fraction: float
    maintenance_ops: float

    def pinned_bytes(self, dense_cols: int, itemsize: int = 8) -> int:
        """DRAM bytes reserved for the top-M structure."""
        return int(self.reserved_entries * dense_cols * itemsize)


@dataclass(frozen=True)
class DisabledPrefetchPlan:
    """Sentinel plan used when WoFP is turned off."""

    kind: str = "disabled"
    capacity: int = 0
    hit_fraction: float = 0.0
    maintenance_ops: float = 0.0

    def pinned_bytes(self, dense_cols: int, itemsize: int = 8) -> int:
        """No DRAM is pinned when the prefetcher is disabled."""
        return 0


class WorkloadPrefetcher:
    """Builds per-workload :class:`PrefetchPlan` objects.

    Args:
        eta: prefetcher-type threshold η — frequency-based when
            ``W_i / Rows_i >= |V| * eta``.
        sigma: prefetch-size parameter σ — capacity ``M = W_i * sigma``.
        frequency_ops_per_access: hash-map maintenance cost of the dynamic
            prefetcher, per workload access.
        degree_ops_per_entry: cost of statically populating one top-M
            entry from the in-degree ranking.
    """

    def __init__(
        self,
        eta: float = 0.01,
        sigma: float = 0.05,
        frequency_ops_per_access: float = 2.0,
        degree_ops_per_entry: float = 1.0,
    ) -> None:
        if eta <= 0:
            raise ValueError(f"eta must be > 0, got {eta}")
        if not 0.0 <= sigma <= 1.0:
            raise ValueError(f"sigma must be in [0, 1], got {sigma}")
        self.eta = eta
        self.sigma = sigma
        self.frequency_ops_per_access = frequency_ops_per_access
        self.degree_ops_per_entry = degree_ops_per_entry

    def selects_frequency(
        self, matrix: CSDBMatrix, partition: WorkloadPartition
    ) -> bool:
        """The paper's type-selection test ``W_i / Rows >= |V| * eta``."""
        rows = max(partition.n_rows, 1)
        return partition.nnz_count / rows >= matrix.n_cols * self.eta

    def plan(
        self,
        matrix: CSDBMatrix,
        partition: WorkloadPartition,
        col_degrees: np.ndarray | None = None,
    ) -> PrefetchPlan:
        """Build the prefetch plan for one workload.

        Args:
            matrix: the sparse operand A.
            partition: the thread's workload.
            col_degrees: precomputed global in-degrees (computed on demand
                if omitted; callers amortize it across partitions).
        """
        w = partition.nnz_count
        if w == 0:
            return PrefetchPlan(
                kind="degree",
                capacity=0,
                reserved_entries=0,
                hot_columns=np.empty(0, dtype=np.int64),
                hit_fraction=0.0,
                maintenance_ops=0.0,
            )
        reserved = max(int(w * self.sigma), 1)
        cols = matrix.col_list[partition.nnz_start : partition.nnz_end]
        # Histogram instead of a sort: O(w + n_cols), same ascending
        # ``distinct`` and per-column ``counts`` as ``np.unique``.
        histogram = np.bincount(cols, minlength=matrix.n_cols)
        (distinct,) = histogram.nonzero()
        counts = histogram[distinct]
        capacity = min(reserved, len(distinct))
        if self.selects_frequency(matrix, partition):
            return self._frequency_plan(distinct, counts, capacity, reserved, w)
        if col_degrees is None:
            col_degrees = matrix.col_degrees()
        return self._degree_plan(
            distinct, counts, col_degrees, capacity, reserved, w
        )

    def _frequency_plan(
        self,
        distinct: np.ndarray,
        counts: np.ndarray,
        capacity: int,
        reserved: int,
        workload: int,
    ) -> PrefetchPlan:
        top = _descending(counts)[:capacity]
        hot = distinct[top]
        hits = float(counts[top].sum())
        return PrefetchPlan(
            kind="frequency",
            capacity=capacity,
            reserved_entries=reserved,
            hot_columns=hot,
            hit_fraction=hits / workload,
            maintenance_ops=workload * self.frequency_ops_per_access
            + reserved * self.degree_ops_per_entry,
        )

    def _degree_plan(
        self,
        distinct: np.ndarray,
        counts: np.ndarray,
        col_degrees: np.ndarray,
        capacity: int,
        reserved: int,
        workload: int,
    ) -> PrefetchPlan:
        # Rank the workload's distinct columns by *global* in-degree: the
        # static proxy the paper uses when per-workload counting would not
        # pay for itself.
        top = _descending(col_degrees[distinct])[:capacity]
        hot = distinct[top]
        hits = float(counts[top].sum())
        return PrefetchPlan(
            kind="degree",
            capacity=capacity,
            reserved_entries=reserved,
            hot_columns=hot,
            hit_fraction=hits / workload,
            maintenance_ops=reserved * self.degree_ops_per_entry,
        )
