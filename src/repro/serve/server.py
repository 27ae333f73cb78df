"""The resilient embedding server.

:class:`EmbeddingServer` replays a request trace against a warmed
:class:`~repro.serve.backend.EmbeddingBackend` on a single
:class:`~repro.memsim.clock.VirtualClock`, as a deterministic
discrete-event loop:

1. **Admission** — arrivals enter a bounded queue; beyond
   ``queue_limit`` they are shed with a typed
   :class:`~repro.serve.errors.QueueFullError` (disable shedding and
   the queue is unbounded — the naive arm of the tail-latency bench).
   Injected ``request_burst`` faults duplicate an arrival ``count``
   times, spiking the queue.
2. **Deadline enforcement** — a request whose budget expired while
   queued is rejected before any service is spent on it; a request
   whose service finishes late completes as ``deadline_exceeded``.
3. **Degradation ladder** — per request class, e.g. full ProNE →
   spectral-propagation-only → stale checkpoint rows.  Compute rungs go
   through the :class:`~repro.serve.breaker.CircuitBreaker`; stalls
   burn the stall budget and count as breaker failures, an open breaker
   skips straight down to the cached tier.
4. **Accounting** — every submitted request (bursts included) resolves
   to exactly one response: served (with its fidelity), shed,
   deadline-exceeded, or failed (only possible with a ladder that does
   not end in the cached tier).

``healthz()`` / ``readyz()`` expose the liveness/readiness view a load
balancer would poll, and every decision is counted in ``serve.*``
metrics plus latency histograms per request class.
"""

from __future__ import annotations

import secrets
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.faults import BackendStallError, FaultInjector
from repro.memsim.clock import VirtualClock
from repro.obs.forensics.records import RequestForensics
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, SpanTracer
from repro.serve.backend import (
    FIDELITY_FULL,
    FIDELITY_LEVELS,
    FIDELITY_PROPAGATION,
    FIDELITY_STALE,
    EmbeddingBackend,
)
from repro.serve.breaker import (
    STATE_OPEN,
    BreakerPolicy,
    CircuitBreaker,
)
from repro.serve.errors import DeadlineExceededError, QueueFullError
from repro.serve.trace import RequestTrace, ServeRequest
from repro.shard.errors import PartialResultError

#: Response statuses (the accounting buckets).
STATUS_SERVED = "served"
STATUS_SHED = "shed"
STATUS_DEADLINE = "deadline_exceeded"
STATUS_FAILED = "failed"
RESPONSE_STATUSES = (
    STATUS_SERVED,
    STATUS_SHED,
    STATUS_DEADLINE,
    STATUS_FAILED,
)

#: Default degradation ladders per request class: interactive traffic
#: may fall all the way to the cache; batch scoring skips the
#: half-fresh middle rung (full fidelity or the cache).
DEFAULT_LADDERS: dict[str, tuple[str, ...]] = {
    "interactive": (FIDELITY_FULL, FIDELITY_PROPAGATION, FIDELITY_STALE),
    "batch": (FIDELITY_FULL, FIDELITY_STALE),
}

#: Label names of the server's labelled series, by family.
_LABELS: dict[str, tuple[str, ...]] = {
    "serve.responses": ("status", "klass"),
    "serve.served": ("fidelity",),
    "serve.latency": ("klass",),
    "serve.blame_seconds": ("klass", "category"),
    "serve.degraded": ("reason",),
}


@dataclass(frozen=True)
class ServePolicy:
    """Admission, deadline and resilience knobs of one server.

    Attributes:
        queue_limit: bound of the admission queue (with shedding on).
        stall_budget_s: how long one compute-tier call may hang before
            it is abandoned (and counted as a breaker failure).
        breaker: circuit-breaker thresholds.
        breaker_enabled: gate compute rungs through the breaker.
        shedding_enabled: enforce ``queue_limit`` (off = unbounded).
        deadline_aware: skip a compute rung whose predicted (healthy)
            cost would already blow the request's deadline — serve a
            degraded answer in time instead of a fresh one late.
        ladders: per-class fidelity ladders (missing classes get the
            interactive ladder).
    """

    queue_limit: int = 64
    stall_budget_s: float = 0.05
    breaker: BreakerPolicy = BreakerPolicy()
    breaker_enabled: bool = True
    shedding_enabled: bool = True
    deadline_aware: bool = True
    ladders: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_LADDERS)
    )

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.stall_budget_s <= 0:
            raise ValueError(
                f"stall_budget_s must be > 0, got {self.stall_budget_s}"
            )
        for klass, ladder in self.ladders.items():
            if not ladder:
                raise ValueError(f"empty ladder for class {klass!r}")
            for rung in ladder:
                if rung not in FIDELITY_LEVELS:
                    raise ValueError(
                        f"unknown fidelity {rung!r} in {klass!r} ladder"
                    )

    def ladder_for(self, klass: str) -> tuple[str, ...]:
        """The fidelity ladder of a request class."""
        return tuple(self.ladders.get(klass, DEFAULT_LADDERS["interactive"]))

    @classmethod
    def calibrated(cls, mean_service_s: float, **overrides: Any) -> "ServePolicy":
        """Scale the time-based knobs to a backend's mean service time.

        Absolute defaults (50 ms stall budget, 5 s recovery window) suit
        wall-clock services; a simulated backend may serve a request in
        microseconds, which would leave a tripped breaker open for the
        whole trace.  This picks a stall budget of 50 mean service times
        and a recovery window of 200, which keeps the open/half-open
        cadence on the same scale as the traffic.  Any explicit
        ``ServePolicy`` field passed as a keyword wins.
        """
        if mean_service_s <= 0:
            raise ValueError(
                f"mean_service_s must be > 0, got {mean_service_s}"
            )
        defaults: dict[str, Any] = {
            "stall_budget_s": 50.0 * mean_service_s,
            "breaker": BreakerPolicy(
                recovery_seconds=200.0 * mean_service_s
            ),
        }
        defaults.update(overrides)
        return cls(**defaults)


@dataclass(frozen=True)
class ServeResponse:
    """Terminal outcome of one submitted request."""

    request_id: str
    klass: str
    status: str
    fidelity: str | None = None
    arrival_s: float = 0.0
    completed_s: float | None = None
    error: str | None = None
    #: Rows served from a stale shard tier (checkpoint hedge or a
    #: restarted shard that has not caught up); 0 for monolithic
    #: backends.  A served-but-stale response is degraded *within* its
    #: fidelity rung rather than down the ladder.
    stale_rows: int = 0
    #: Server-assigned trace id, unique per submitted request (bursts
    #: included), so every served/shed/failed request is queryable in
    #: the telemetry stream.
    trace_id: str | None = None
    #: Admission-queue wait vs execution breakdown of the latency
    #: (both zero for shed requests, which never dequeue).
    queue_wait_s: float = 0.0
    exec_s: float = 0.0
    #: Degradation rung whose backend call actually produced the rows —
    #: unlike ``fidelity``, it survives late completion (a
    #: ``deadline_exceeded`` response nulls ``fidelity`` but keeps the
    #: rung it burned its budget on).
    rung: str | None = None

    @property
    def latency_s(self) -> float | None:
        """End-to-end latency (None for shed requests)."""
        if self.completed_s is None:
            return None
        return self.completed_s - self.arrival_s


@dataclass
class ServeReport:
    """Everything one trace replay produced."""

    responses: list[ServeResponse] = field(default_factory=list)
    submitted: int = 0
    warmup_sim_seconds: float = 0.0
    finished_at_s: float = 0.0

    def count(self, status: str) -> int:
        """How many responses ended in ``status``."""
        return sum(1 for r in self.responses if r.status == status)

    @property
    def served(self) -> int:
        return self.count(STATUS_SERVED)

    @property
    def shed(self) -> int:
        return self.count(STATUS_SHED)

    @property
    def deadline_exceeded(self) -> int:
        return self.count(STATUS_DEADLINE)

    @property
    def failed(self) -> int:
        return self.count(STATUS_FAILED)

    @property
    def balanced(self) -> bool:
        """served + shed + deadline-exceeded + failed == submitted."""
        return len(self.responses) == self.submitted and (
            self.served + self.shed + self.deadline_exceeded + self.failed
            == self.submitted
        )

    def fidelity_counts(self) -> dict[str, int]:
        """Served requests per fidelity level."""
        counts: dict[str, int] = {}
        for response in self.responses:
            if response.status == STATUS_SERVED:
                counts[response.fidelity] = counts.get(response.fidelity, 0) + 1
        return counts

    def latencies(
        self, statuses: tuple[str, ...] = (STATUS_SERVED,)
    ) -> np.ndarray:
        """Latencies of completed responses with the given statuses."""
        values = [
            r.latency_s
            for r in self.responses
            if r.status in statuses and r.latency_s is not None
        ]
        return np.asarray(values, dtype=np.float64)

    def latency_percentile(
        self, q: float, statuses: tuple[str, ...] = (STATUS_SERVED,)
    ) -> float:
        """Latency percentile over the given statuses (0 when empty)."""
        values = self.latencies(statuses)
        if len(values) == 0:
            return 0.0
        return float(np.percentile(values, q))

    def summary(self) -> dict[str, Any]:
        """JSON-able headline numbers (the ``serve-sim`` output)."""
        completed = (STATUS_SERVED, STATUS_DEADLINE)
        return {
            "submitted": self.submitted,
            "served": self.served,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "failed": self.failed,
            "balanced": self.balanced,
            "fidelity": self.fidelity_counts(),
            "p50_latency_s": self.latency_percentile(50, completed),
            "p99_latency_s": self.latency_percentile(99, completed),
            "warmup_sim_seconds": self.warmup_sim_seconds,
            "finished_at_s": self.finished_at_s,
        }


class EmbeddingServer:
    """Deterministic single-worker serving loop over a request trace."""

    def __init__(
        self,
        backend: EmbeddingBackend,
        policy: ServePolicy | None = None,
        clock: VirtualClock | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: SpanTracer | None = None,
        faults: FaultInjector | None = None,
        stream: Any | None = None,
        snapshot_every: int = 50,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self.backend = backend
        self.policy = policy or ServePolicy()
        self.clock = clock or VirtualClock()
        self.metrics = metrics if metrics is not None else backend.metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.faults = faults if faults is not None else backend.faults
        #: Live :class:`~repro.obs.live.TelemetryStream` to feed — one
        #: ``serve_request`` event per response plus a ``serve_snapshot``
        #: every ``snapshot_every`` responses (what ``repro top`` tails).
        self.stream = stream
        if stream is not None:
            # Incident (`shard_event`) records must land on the same
            # stream as the request forensics so `repro why` can join
            # them; propagate to a sharded backend that was built
            # without one.  The shard manager reads its stream at emit
            # time, so this works even after warm_up.
            if getattr(backend, "stream", False) is None:
                backend.stream = stream
            shards = getattr(backend, "shards", None)
            if shards is not None and shards.stream is None:
                shards.stream = stream
        self.snapshot_every = snapshot_every
        self.breaker = CircuitBreaker(
            self.policy.breaker,
            clock=lambda: self.clock.now,
            metrics=self.metrics,
            name="backend",
        )
        #: Admitted requests with the trace id each got on submission.
        self._pending: deque[tuple[ServeRequest, str]] = deque()
        # Per-server token so trace ids stay unique across concurrently
        # replaying servers that share one metrics registry.
        self._trace_token = secrets.token_hex(4)
        self._trace_seq = 0
        self._bind_metrics()
        self._queue_depth.set(0)

    def _bind_metrics(self) -> None:
        """Bind the series this server writes to ``self.metrics``.

        The fixed series are bound (and so present, at zero, in every
        telemetry export) here; a labelled one is bound on its first
        use by :meth:`_series`.  ``run_trace`` calls this again when
        ``self.metrics`` is no longer the registry bound last.
        """
        metrics = self.metrics
        self._bound_to = metrics
        self._count_unhandled = metrics.counter(
            "serve.unhandled_exceptions"
        ).inc
        self._count_submitted = metrics.counter("serve.submitted").inc
        self._queue_depth = metrics.gauge("serve.queue_depth")
        self._queue_peak = metrics.gauge("serve.queue_peak")
        self._labelled: dict[tuple[str, ...], Callable[..., None]] = {}

    def _series(self, family: str, *values: str) -> Callable[..., None]:
        """The bound ``inc`` (``observe`` for ``serve.latency``) of one
        labelled series: ``family`` with :data:`_LABELS` ``= values``."""
        key = (family, *values)
        bound = self._labelled.get(key)
        if bound is None:
            labels = dict(zip(_LABELS[family], values))
            if family == "serve.latency":
                bound = self.metrics.histogram(family, **labels).observe
            else:
                bound = self.metrics.counter(family, **labels).inc
            self._labelled[key] = bound
        return bound

    # -- probes ----------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        """Liveness view: is the server making progress safely?"""
        unhandled = self.metrics.value("serve.unhandled_exceptions")
        return {
            "healthy": unhandled == 0,
            "unhandled_exceptions": int(unhandled),
            "breaker_state": self.breaker.state,
            "breaker_trips": self.breaker.trips,
            "queue_depth": len(self._pending),
            "sim_now_s": self.clock.now,
        }

    def readyz(self) -> dict[str, Any]:
        """Readiness view: should a balancer route traffic here?"""
        queue_ok = (
            not self.policy.shedding_enabled
            or len(self._pending) < self.policy.queue_limit
        )
        breaker_ok = self.breaker.state != STATE_OPEN
        return {
            "ready": self.backend.warm and queue_ok and breaker_ok,
            "backend_warm": self.backend.warm,
            "queue_has_capacity": queue_ok,
            "breaker_state": self.breaker.state,
        }

    # -- the event loop --------------------------------------------------

    def run_trace(self, trace: RequestTrace) -> ServeReport:
        """Replay a trace to completion; every request is accounted for."""
        report = ServeReport()
        if not self.backend.warm:
            report.warmup_sim_seconds = self.backend.warm_up()
        if self._bound_to is not self.metrics:
            self._bind_metrics()
        self._pending.clear()
        requests = list(trace.requests)
        index = 0
        with self.tracer.span("serve_trace", n_requests=len(requests)):
            while index < len(requests) or self._pending:
                if not self._pending:
                    self.clock.advance_to(requests[index].arrival_s)
                index = self._admit(requests, index, report)
                if not self._pending:
                    continue
                request, trace_id = self._pending.popleft()
                self._update_queue_gauge()
                try:
                    self._handle(request, trace_id, report)
                except Exception as exc:
                    self._count_unhandled()
                    self._respond(
                        report,
                        ServeResponse(
                            request_id=request.request_id,
                            klass=request.klass,
                            status=STATUS_FAILED,
                            arrival_s=request.arrival_s,
                            completed_s=self.clock.now,
                            error=type(exc).__name__,
                            trace_id=trace_id,
                        ),
                    )
        report.finished_at_s = self.clock.now
        self._emit_snapshot()
        self.tracer.record(
            "serve_summary",
            submitted=report.submitted,
            served=report.served,
            shed=report.shed,
            deadline_exceeded=report.deadline_exceeded,
            breaker_trips=self.breaker.trips,
        )
        return report

    # -- admission -------------------------------------------------------

    def _admit(
        self, requests: list[ServeRequest], index: int, report: ServeReport
    ) -> int:
        """Move every due arrival into the queue (or shed it)."""
        while index < len(requests) and (
            requests[index].arrival_s <= self.clock.now
        ):
            request = requests[index]
            index += 1
            arrivals = [request]
            if self.faults is not None:
                burst = self.faults.take_request_burst()
                if burst is not None:
                    self.tracer.record(
                        "request_burst", count=burst.count,
                        at=request.request_id,
                    )
                    arrivals.extend(
                        ServeRequest(
                            request_id=f"{request.request_id}.b{i}",
                            arrival_s=request.arrival_s,
                            klass=request.klass,
                            n_nodes=request.n_nodes,
                            deadline_s=request.deadline_s,
                        )
                        for i in range(burst.count)
                    )
            for arrival in arrivals:
                report.submitted += 1
                trace_id = self._next_trace_id()
                self._count_submitted()
                if (
                    self.policy.shedding_enabled
                    and len(self._pending) >= self.policy.queue_limit
                ):
                    error = QueueFullError(
                        arrival.request_id, self.policy.queue_limit
                    )
                    self._respond(
                        report,
                        ServeResponse(
                            request_id=arrival.request_id,
                            klass=arrival.klass,
                            status=STATUS_SHED,
                            arrival_s=arrival.arrival_s,
                            error=type(error).__name__,
                            trace_id=trace_id,
                        ),
                    )
                else:
                    self._pending.append((arrival, trace_id))
            self._update_queue_gauge()
        return index

    def _update_queue_gauge(self) -> None:
        depth = len(self._pending)
        self._queue_depth.set(depth)
        if depth > self._queue_peak.value:
            self._queue_peak.set(depth)

    # -- per-request handling --------------------------------------------

    def _handle(
        self, request: ServeRequest, trace_id: str, report: ServeReport
    ) -> None:
        deadline_at = request.arrival_s + request.deadline_s
        # Everything from arrival to this dequeue moment is admission
        # wait; everything after it is execution.  The forensics
        # collector shadows each clock advance the request pays for, so
        # its blame buckets sum to the end-to-end simulated latency.
        handled_at = self.clock.now
        queue_wait = max(0.0, handled_at - request.arrival_s)
        forensics = RequestForensics(
            request_id=request.request_id,
            klass=request.klass,
            arrival_s=request.arrival_s,
            deadline_s=request.deadline_s,
            n_nodes=request.n_nodes,
        )
        forensics.begin_handling(handled_at)
        if self.clock.now >= deadline_at:
            # The budget died in the queue: reject before spending any
            # service on it (the shedding path's cheaper sibling).
            error = DeadlineExceededError(
                request.request_id,
                request.deadline_s,
                self.clock.now - request.arrival_s,
            )
            self._respond(
                report,
                ServeResponse(
                    request_id=request.request_id,
                    klass=request.klass,
                    status=STATUS_DEADLINE,
                    arrival_s=request.arrival_s,
                    completed_s=self.clock.now,
                    error=type(error).__name__,
                    trace_id=trace_id,
                    queue_wait_s=queue_wait,
                ),
                forensics=forensics,
            )
            return
        fidelity, stale_rows = self._serve_ladder(
            request, deadline_at, forensics
        )
        if fidelity is None:
            self._respond(
                report,
                ServeResponse(
                    request_id=request.request_id,
                    klass=request.klass,
                    status=STATUS_FAILED,
                    arrival_s=request.arrival_s,
                    completed_s=self.clock.now,
                    error=BackendStallError.__name__,
                    trace_id=trace_id,
                    queue_wait_s=queue_wait,
                    exec_s=self.clock.now - handled_at,
                ),
                forensics=forensics,
            )
            return
        completed = self.clock.now
        late = completed > deadline_at
        self._respond(
            report,
            ServeResponse(
                request_id=request.request_id,
                klass=request.klass,
                status=STATUS_DEADLINE if late else STATUS_SERVED,
                fidelity=None if late else fidelity,
                arrival_s=request.arrival_s,
                completed_s=completed,
                error=DeadlineExceededError.__name__ if late else None,
                stale_rows=stale_rows,
                trace_id=trace_id,
                queue_wait_s=queue_wait,
                exec_s=completed - handled_at,
                rung=fidelity,
            ),
            forensics=forensics,
        )

    def _serve_ladder(
        self,
        request: ServeRequest,
        deadline_at: float,
        forensics: RequestForensics,
    ) -> tuple[str | None, int]:
        """Walk the class ladder; returns (served fidelity, stale rows)."""
        for rung in self.policy.ladder_for(request.klass):
            if rung == FIDELITY_STALE:
                response = self.backend.serve_cached(request.n_nodes)
                forensics.record_backend(rung, response, self.clock.now)
                self.clock.advance(response.sim_seconds)
                return rung, response.stale_rows
            if self.policy.deadline_aware:
                predicted = self.backend.compute_cost(request.n_nodes, rung)
                if self.clock.now + predicted > deadline_at:
                    self._series("serve.degraded", "deadline")()
                    forensics.record_skip(rung, "deadline", self.clock.now)
                    continue
            if self.policy.breaker_enabled and not self.breaker.allow():
                self._series("serve.degraded", "breaker_open")()
                forensics.record_skip(rung, "breaker_open", self.clock.now)
                continue
            try:
                response = self.backend.serve(
                    request.n_nodes,
                    rung,
                    self.policy.stall_budget_s,
                    sim_now=self.clock.now,
                )
            except BackendStallError as stall:
                # The call hung; we waited out the stall budget, then
                # abandoned it and fell one rung down the ladder.
                forensics.record_stall(rung, stall.seconds, self.clock.now)
                self.clock.advance(stall.seconds)
                self.breaker.record_failure()
                self._series("serve.degraded", "backend_stall")()
                continue
            except PartialResultError:
                # Part of the sharded gather had neither a live worker
                # nor a checkpoint.  A per-shard hole is not a backend
                # failure — the breaker stays untouched, the request
                # falls one rung (usually onto the global stale tier).
                self._series("serve.degraded", "shard_partial")()
                forensics.record_skip(rung, "shard_partial", self.clock.now)
                continue
            forensics.record_backend(rung, response, self.clock.now)
            self.clock.advance(response.sim_seconds)
            self.breaker.record_success()
            if response.stale_rows > 0:
                # Served on this rung, but part of the gather came from
                # a stale shard tier: degraded within the rung.
                self._series("serve.degraded", "shard_stale")()
            return rung, response.stale_rows
        return None, 0

    def _next_trace_id(self) -> str:
        """Unique per-request trace id (assigned at submission)."""
        self._trace_seq += 1
        return f"req-{self._trace_token}-{self._trace_seq:06d}"

    def _emit_snapshot(self) -> None:
        """Force-flushed snapshot of the live serving state."""
        if self.stream is None:
            return
        from repro.obs.live import build_serve_snapshot

        self.stream.emit(
            build_serve_snapshot(
                self.metrics,
                sim_now_s=self.clock.now,
                breaker_state=self.breaker.state,
                queue_depth=len(self._pending),
            )
        )
        self.stream.flush()

    def _respond(
        self,
        report: ServeReport,
        response: ServeResponse,
        forensics: RequestForensics | None = None,
    ) -> None:
        trace_id = response.trace_id
        klass = response.klass
        report.responses.append(response)
        self._series("serve.responses", response.status, klass)()
        if response.status == STATUS_SERVED:
            self._series("serve.served", response.fidelity)()
        latency = response.latency_s
        if latency is not None:
            self._series("serve.latency", klass)(latency, exemplar=trace_id)
        if forensics is not None:
            # Blame seconds are counted even without a stream attached:
            # they are what `repro diff` gates and perf-gate publishes.
            for category, seconds in forensics.blame.items():
                self._series("serve.blame_seconds", klass, category)(
                    max(0.0, seconds)
                )
        if self.stream is not None:
            if forensics is None:
                # Shed (or handler-torn) requests still leave a root
                # node, so every submitted request is reconstructable.
                forensics = RequestForensics(
                    request_id=response.request_id,
                    klass=response.klass,
                    arrival_s=response.arrival_s,
                    deadline_s=0.0,
                )
                if response.status == STATUS_FAILED:
                    forensics.partial = True
            for record in forensics.to_records(
                trace_id,
                response.status,
                response.fidelity,
                response.completed_s,
            ):
                self.stream.emit(record)
            self.stream.emit(
                {
                    "type": "serve_request",
                    "trace_id": trace_id,
                    "request_id": response.request_id,
                    "klass": response.klass,
                    "status": response.status,
                    "fidelity": response.fidelity,
                    "latency_s": latency,
                    "stale_rows": response.stale_rows,
                    "sim_now_s": self.clock.now,
                    "queue_wait_s": response.queue_wait_s,
                    "exec_s": response.exec_s,
                    "rung": response.rung,
                }
            )
            if len(report.responses) % self.snapshot_every == 0:
                self._emit_snapshot()
