"""ASL — asynchronous adaptive streaming loading (§III-E).

The dense matrices and intermediates of the embedding pipeline exceed
DRAM, so data streams between PM and DRAM.  ASL (i) picks the partition
count ``n`` from the peak-memory inequality of Eq. 8/9 so each batch fits
the available DRAM, and (ii) overlaps each batch's PM->DRAM load with the
previous batch's compute, exposing only the non-overlapped remainder.

With equal batches of total load time ``L`` and total compute ``C``::

    timeline = L/n + sum_{b=2..n} max(C/n, L/n) + C/n

so the *exposed* (non-overlapped) streaming time is ``L/n`` when compute
dominates and ``L - C*(n-1)/n`` when loading dominates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.faults import (
    ASL_LOAD_SITE,
    FaultInjector,
    RetryExhaustedError,
)
from repro.obs.metrics import MetricsRegistry, MetricUpdate


def optimal_partitions(
    n_nodes: int,
    dim: int,
    dram_budget_bytes: float,
    sparse_bytes: float,
    itemsize: int = 8,
) -> int:
    """Eq. 9: minimal partition count for the dense matrix.

    Peak memory (Eq. 8) is ``M_l + M_al + M_li + M_s + M_r + M_ri <=
    M_total`` with ``M_l = M_al = M_li = (d/n)*|V|*itemsize`` (the live
    batch, the in-flight async batch and its intermediate) and
    ``M_r = M_ri = d*|V|*itemsize`` (result and its intermediate).
    Solving for n:

        n >= 3*d*|V|*s / (M_total - M_s - 2*d*|V|*s)

    When the denominator is non-positive even the non-streamed residency
    does not fit, so streaming degenerates to the maximal split (one
    embedding column per batch).
    """
    if n_nodes < 1 or dim < 1:
        raise ValueError(f"need n_nodes, dim >= 1, got {n_nodes}, {dim}")
    if dram_budget_bytes <= 0:
        return dim
    dense_bytes = float(dim * n_nodes * itemsize)
    denominator = dram_budget_bytes - sparse_bytes - 2.0 * dense_bytes
    if denominator <= 0:
        return dim
    n = math.ceil(3.0 * dense_bytes / denominator)
    return min(max(n, 1), dim)


#: Recognised :attr:`RetryPolicy.jitter` modes.
JITTER_MODES = ("none", "full")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for transient streaming-load failures.

    Attributes:
        max_retries: failed attempts tolerated before
            :class:`~repro.faults.RetryExhaustedError`.
        base_delay_seconds: backoff before the first retry.
        multiplier: per-retry backoff growth factor.
        jitter: ``"none"`` (pure exponential, the historical behaviour)
            or ``"full"`` — each delay is drawn uniformly from
            ``[0, base * multiplier**attempt]`` (the AWS "full jitter"
            scheme), decorrelating retry storms when many loads fail at
            once.
        jitter_seed: seed of the policy's private RNG, so a jittered
            simulation stays deterministic and replayable.
    """

    max_retries: int = 3
    base_delay_seconds: float = 1e-3
    multiplier: float = 2.0
    jitter: str = "none"
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay_seconds < 0:
            raise ValueError(
                "base_delay_seconds must be >= 0,"
                f" got {self.base_delay_seconds}"
            )
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.jitter not in JITTER_MODES:
            raise ValueError(
                f"jitter must be one of {JITTER_MODES}, got {self.jitter!r}"
            )
        import numpy as np

        object.__setattr__(
            self, "_rng", np.random.default_rng(self.jitter_seed)
        )

    def delay(self, attempt: int) -> float:
        """Backoff charged after the ``attempt``-th failure (0-based).

        With full jitter the policy's seeded RNG advances per call, so
        the delay *sequence* (not each individual delay) is the
        deterministic, replayable unit.
        """
        cap = self.base_delay_seconds * self.multiplier**attempt
        if self.jitter == "none":
            return cap
        return float(self._rng.uniform(0.0, cap))


#: Default backoff used by the engine when none is configured.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass(frozen=True)
class LoadOutcome:
    """Result of one (possibly retried) streaming load.

    Attributes:
        exposed_seconds: non-overlapped streaming time of the attempt
            that succeeded.
        retry_seconds: simulated time lost to failed attempts — the
            wasted partial transfers plus the backoff delays.
        attempts: total attempts, including the successful one.
    """

    exposed_seconds: float
    retry_seconds: float
    attempts: int

    @property
    def total_seconds(self) -> float:
        """Everything the load put on the critical path."""
        return self.exposed_seconds + self.retry_seconds


@dataclass(frozen=True)
class StreamPlan:
    """Streaming schedule of one dense operand.

    Attributes:
        n_partitions: Eq. 9 batch count n.
        batch_bytes: bytes of one batch ((d/n) * |V| * itemsize).
        total_load_seconds: L — full PM->DRAM transfer time.
    """

    n_partitions: int
    batch_bytes: float
    total_load_seconds: float

    def exposed_seconds(self, compute_seconds: float) -> float:
        """Non-overlapped streaming time given the phase's compute time."""
        if compute_seconds < 0:
            raise ValueError(
                f"compute_seconds must be >= 0, got {compute_seconds}"
            )
        n = self.n_partitions
        load = self.total_load_seconds
        if n <= 1:
            return load
        per_batch_load = load / n
        per_batch_compute = compute_seconds / n
        overlap = min(per_batch_load, per_batch_compute) * (n - 1)
        return load - overlap


def record_stream_metrics(
    plan: StreamPlan, exposed: float, metrics: MetricsRegistry
) -> list[MetricUpdate]:
    """One load's overlap telemetry as updates of a metrics registry.

    Returns them bound to ``metrics``' series, in recording order (see
    :func:`~repro.core.eata.record_allocation_metrics`).
    ``asl.exposed_seconds`` is the streaming time left on the critical
    path; ``asl.hidden_seconds`` is what the compute overlap absorbed.
    """
    return [
        (metrics.counter("asl.loads").inc, 1.0),
        (metrics.counter("asl.exposed_seconds").inc, exposed),
        (metrics.counter("asl.hidden_seconds").inc,
         plan.total_load_seconds - exposed),
        (metrics.counter("asl.streamed_bytes").inc,
         plan.batch_bytes * plan.n_partitions),
        (metrics.gauge("asl.n_partitions").set, plan.n_partitions),
    ]


class StreamingLoader:
    """Plans ASL streaming for the SpMM engine.

    Args:
        pm_seq_read_bandwidth: aggregate PM sequential-read bandwidth
            (bytes/s) available for streaming loads.
    """

    def __init__(self, pm_seq_read_bandwidth: float) -> None:
        if pm_seq_read_bandwidth <= 0:
            raise ValueError(
                "pm_seq_read_bandwidth must be > 0,"
                f" got {pm_seq_read_bandwidth}"
            )
        self.pm_seq_read_bandwidth = pm_seq_read_bandwidth

    def plan(
        self,
        n_nodes: int,
        dim: int,
        dram_budget_bytes: float,
        sparse_bytes: float,
        itemsize: int = 8,
    ) -> StreamPlan:
        """Build the :class:`StreamPlan` for one dense operand."""
        n = optimal_partitions(
            n_nodes, dim, dram_budget_bytes, sparse_bytes, itemsize
        )
        dense_bytes = float(dim * n_nodes * itemsize)
        return StreamPlan(
            n_partitions=n,
            batch_bytes=dense_bytes / n,
            total_load_seconds=dense_bytes / self.pm_seq_read_bandwidth,
        )

    def observe(
        self,
        plan: StreamPlan,
        compute_seconds: float,
        metrics: MetricsRegistry | None = None,
    ) -> float:
        """Exposed streaming seconds, with overlap telemetry
        (:func:`record_stream_metrics`; pass ``compute_seconds=0`` for the
        no-overlap/disabled arm).
        """
        exposed = plan.exposed_seconds(compute_seconds)
        if metrics is not None:
            for update, value in record_stream_metrics(plan, exposed, metrics):
                update(value)
        return exposed

    def load(
        self,
        plan: StreamPlan,
        compute_seconds: float,
        metrics: MetricsRegistry | None = None,
        faults: FaultInjector | None = None,
        site: str = ASL_LOAD_SITE,
        retry: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> LoadOutcome:
        """One streaming load with retry-on-transient-failure semantics.

        Each injected transient failure wastes one in-flight batch and
        pays the policy's exponential backoff, both charged to the
        simulated clock (``asl.retries`` / ``asl.retry_seconds``
        metrics).  When the failures outlast ``retry.max_retries``
        attempts beyond the first, the typed
        :class:`~repro.faults.RetryExhaustedError` propagates — the
        caller decides whether that degrades the tier or aborts.
        """
        retry_seconds = 0.0
        attempts = 0
        while True:
            attempts += 1
            if faults is None or not faults.take_transient_failure(site):
                exposed = self.observe(plan, compute_seconds, metrics)
                return LoadOutcome(
                    exposed_seconds=exposed,
                    retry_seconds=retry_seconds,
                    attempts=attempts,
                )
            # One in-flight batch is lost, then the backoff elapses.
            wasted = plan.total_load_seconds / plan.n_partitions
            delay = retry.delay(attempts - 1)
            retry_seconds += wasted + delay
            if metrics is not None:
                metrics.counter("asl.retries").inc()
                metrics.counter("asl.retry_seconds").inc(wasted + delay)
                metrics.histogram(
                    "asl.retry_delay", jitter=retry.jitter
                ).observe(delay)
            if attempts > retry.max_retries:
                raise RetryExhaustedError(site, attempts)
