"""Tests for the resilient embedding server (`repro.serve`).

Covers the circuit-breaker state machine, serving policies, trace
synthesis/round-trips, the degradation ladder, liveness/readiness
probes, and — as a hypothesis property — the accounting invariant that
every submitted request resolves to exactly one terminal status, under
arbitrary seeded traces and fault plans.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import OMeGaConfig, OMeGaEmbedder
from repro.faults import (
    ARRIVAL_SITE,
    BACKEND_SITE,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.graphs import chung_lu_edges
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    BreakerPolicy,
    CircuitBreaker,
    CircuitOpenError,
    EmbeddingBackend,
    EmbeddingServer,
    RequestTrace,
    ServePolicy,
    ServeRequest,
)
from repro.serve.breaker import STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN
from repro.serve.server import (
    RESPONSE_STATUSES,
    STATUS_DEADLINE,
    STATUS_SERVED,
    STATUS_SHED,
)

N_NODES = 150

#: One warmed backend shared by the whole module (warmup runs the full
#: pipeline, so building it per test would dominate the suite).
_BACKEND = None


def shared_backend() -> EmbeddingBackend:
    global _BACKEND
    if _BACKEND is None:
        edges = chung_lu_edges(N_NODES, 900, seed=3)
        embedder = OMeGaEmbedder(OMeGaConfig(n_threads=2, dim=8))
        _BACKEND = EmbeddingBackend(embedder, edges, N_NODES)
        _BACKEND.warm_up()
    return _BACKEND


@pytest.fixture(scope="module")
def backend() -> EmbeddingBackend:
    return shared_backend()


def calibrated_policy(backend, **overrides) -> ServePolicy:
    return ServePolicy.calibrated(
        backend.compute_cost(1) * 8.5, **overrides
    )


# -- circuit breaker ------------------------------------------------------


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_breaker(**policy_kwargs):
    clock = ManualClock()
    policy = BreakerPolicy(
        failure_threshold=3, recovery_seconds=1.0, half_open_probes=2,
        **policy_kwargs,
    )
    return CircuitBreaker(policy, clock=clock), clock


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker, _ = make_breaker()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()
        assert breaker.trips == 0

    def test_trips_after_consecutive_failures(self):
        breaker, _ = make_breaker()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker, _ = make_breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED

    def test_check_raises_with_retry_hint(self):
        breaker, clock = make_breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 0.25
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.check()
        assert excinfo.value.retry_after_s == pytest.approx(0.75)

    def test_half_open_after_recovery_window(self):
        breaker, clock = make_breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 0.99
        assert breaker.state == STATE_OPEN
        clock.now = 1.0
        assert breaker.state == STATE_HALF_OPEN
        assert breaker.allow()

    def test_probe_successes_close(self):
        breaker, clock = make_breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 1.5
        assert breaker.state == STATE_HALF_OPEN
        breaker.record_success()
        assert breaker.state == STATE_HALF_OPEN
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.trips == 1

    def test_probe_failure_reopens(self):
        breaker, clock = make_breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 1.5
        assert breaker.state == STATE_HALF_OPEN
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 2

    def test_rejections_are_counted(self):
        metrics = MetricsRegistry()
        clock = ManualClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1), clock=clock, metrics=metrics
        )
        breaker.record_failure()
        assert not breaker.allow()
        assert not breaker.allow()
        assert (
            metrics.value("serve.breaker.rejections", breaker="backend") == 2
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(failure_threshold=0),
            dict(recovery_seconds=0.0),
            dict(half_open_probes=0),
        ],
    )
    def test_policy_validation(self, kwargs):
        with pytest.raises(ValueError):
            BreakerPolicy(**kwargs)


# -- policies -------------------------------------------------------------


class TestServePolicy:
    def test_calibrated_scales_time_knobs(self):
        policy = ServePolicy.calibrated(1e-4)
        assert policy.stall_budget_s == pytest.approx(5e-3)
        assert policy.breaker.recovery_seconds == pytest.approx(2e-2)

    def test_calibrated_explicit_override_wins(self):
        policy = ServePolicy.calibrated(1e-4, stall_budget_s=1.0)
        assert policy.stall_budget_s == 1.0

    def test_calibrated_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            ServePolicy.calibrated(0.0)

    def test_unknown_class_gets_interactive_ladder(self):
        policy = ServePolicy()
        assert policy.ladder_for("mystery") == policy.ladder_for("interactive")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(queue_limit=0),
            dict(stall_budget_s=0.0),
            dict(ladders={"interactive": ()}),
            dict(ladders={"interactive": ("fresh-ish",)}),
        ],
    )
    def test_policy_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServePolicy(**kwargs)


# -- traces ---------------------------------------------------------------


class TestRequestTrace:
    def test_synthesize_is_deterministic(self):
        a = RequestTrace.synthesize(seed=5, n_requests=40)
        b = RequestTrace.synthesize(seed=5, n_requests=40)
        assert a == b
        assert len(a) == 40

    def test_requests_sorted_by_arrival(self):
        trace = RequestTrace(
            requests=(
                ServeRequest("b", 2.0, "interactive", 4, 1.0),
                ServeRequest("a", 1.0, "batch", 32, 1.0),
            )
        )
        assert [r.request_id for r in trace.requests] == ["a", "b"]

    def test_round_trip(self, tmp_path):
        trace = RequestTrace.synthesize(seed=9, n_requests=25)
        path = trace.save(tmp_path / "trace.json")
        assert RequestTrace.load(path) == trace

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(klass="best_effort"),
            dict(arrival_s=-1.0),
            dict(n_nodes=0),
            dict(deadline_s=0.0),
        ],
    )
    def test_request_validation(self, kwargs):
        base = dict(
            request_id="r0", arrival_s=0.0, klass="interactive",
            n_nodes=4, deadline_s=1.0,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            ServeRequest(**base)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(load=0.0),
            dict(per_node_cost_s=0.0),
            dict(interactive_fraction=1.5),
            dict(max_batch_nodes=8),
        ],
    )
    def test_synthesize_validation(self, kwargs):
        with pytest.raises(ValueError):
            RequestTrace.synthesize(seed=0, n_requests=5, **kwargs)


# -- the server -----------------------------------------------------------


class TestEmbeddingServer:
    def test_cold_backend_not_ready(self):
        edges = chung_lu_edges(60, 300, seed=1)
        embedder = OMeGaEmbedder(OMeGaConfig(n_threads=2, dim=8))
        cold = EmbeddingBackend(embedder, edges, 60)
        server = EmbeddingServer(cold)
        assert not server.readyz()["ready"]
        assert server.healthz()["healthy"]  # alive, just not warm

    def test_fault_free_trace_all_served(self, backend):
        trace = RequestTrace.synthesize(
            seed=11, n_requests=60,
            per_node_cost_s=backend.compute_cost(1), load=0.5,
        )
        server = EmbeddingServer(backend, calibrated_policy(backend))
        report = server.run_trace(trace)
        assert report.balanced
        assert report.submitted == 60
        assert report.served + report.deadline_exceeded == 60
        assert report.served > 0
        assert server.healthz()["healthy"]
        assert server.readyz()["ready"]

    def test_queue_overflow_sheds_typed(self, backend):
        burst = tuple(
            ServeRequest(f"r{i}", 0.0, "interactive", 4, 10.0)
            for i in range(8)
        )
        policy = calibrated_policy(backend, queue_limit=2)
        server = EmbeddingServer(backend, policy)
        report = server.run_trace(RequestTrace(requests=burst))
        assert report.balanced
        assert report.shed > 0
        shed = [r for r in report.responses if r.status == STATUS_SHED]
        assert all(r.error == "QueueFullError" for r in shed)

    def test_shedding_disabled_queues_everything(self, backend):
        burst = tuple(
            ServeRequest(f"r{i}", 0.0, "interactive", 4, 10.0)
            for i in range(8)
        )
        policy = calibrated_policy(
            backend, queue_limit=2, shedding_enabled=False
        )
        report = EmbeddingServer(backend, policy).run_trace(
            RequestTrace(requests=burst)
        )
        assert report.balanced
        assert report.shed == 0

    def test_impossible_deadline_degrades_or_misses(self, backend):
        # A deadline below even the cached-tier cost: the server must
        # still account for the request (deadline_exceeded), never hang.
        request = ServeRequest("r0", 0.0, "interactive", 64, 1e-12)
        report = EmbeddingServer(
            backend, calibrated_policy(backend)
        ).run_trace(RequestTrace(requests=(request,)))
        assert report.balanced
        assert report.deadline_exceeded == 1
        assert report.responses[0].error == "DeadlineExceededError"

    def test_stalls_trip_breaker_and_degrade(self, backend):
        stall_budget = calibrated_policy(backend).stall_budget_s
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind="backend_stall", site=BACKEND_SITE, count=6,
                    seconds=10.0 * stall_budget,
                ),
            )
        )
        injector = FaultInjector(plan, MetricsRegistry())
        backend.faults = injector
        try:
            policy = calibrated_policy(
                backend, breaker=BreakerPolicy(failure_threshold=2)
            )
            trace = RequestTrace.synthesize(
                seed=2, n_requests=80,
                per_node_cost_s=backend.compute_cost(1), load=0.5,
            )
            server = EmbeddingServer(backend, policy, faults=injector)
            report = server.run_trace(trace)
        finally:
            backend.faults = None
        assert report.balanced
        assert server.breaker.trips > 0
        assert "stale" in report.fidelity_counts()
        assert server.healthz()["unhandled_exceptions"] == 0

    def test_request_burst_inflates_submitted(self, backend):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind="request_burst", site=ARRIVAL_SITE, count=5
                ),
            )
        )
        injector = FaultInjector(plan, MetricsRegistry())
        trace = RequestTrace.synthesize(
            seed=4, n_requests=20,
            per_node_cost_s=backend.compute_cost(1), load=0.5,
        )
        server = EmbeddingServer(
            backend, calibrated_policy(backend), faults=injector
        )
        report = server.run_trace(trace)
        assert report.submitted == 25
        assert report.balanced

    def test_replay_is_deterministic(self, backend):
        trace = RequestTrace.synthesize(
            seed=6, n_requests=40,
            per_node_cost_s=backend.compute_cost(1), load=1.2,
        )
        outcomes = []
        for _ in range(2):
            report = EmbeddingServer(
                backend, calibrated_policy(backend)
            ).run_trace(trace)
            outcomes.append(
                [(r.request_id, r.status, r.fidelity) for r in report.responses]
            )
        assert outcomes[0] == outcomes[1]


# -- the stale tier ---------------------------------------------------------


class TestStaleTier:
    @pytest.fixture(scope="class")
    def stale_backend(self) -> EmbeddingBackend:
        n = 2000
        backend = EmbeddingBackend(
            OMeGaEmbedder(OMeGaConfig(n_threads=2, dim=16)),
            chung_lu_edges(n, 12_000, seed=5),
            n,
        )
        backend.warm_up()
        return backend

    def test_rows_are_the_checkpointed_rows(self, stale_backend):
        n = stale_backend.n_nodes
        table = stale_backend._checkpointed.recover_embedding()
        for size in (1, 8, n + 3):
            response = stale_backend.serve_cached(size)
            assert response.fidelity == "stale"
            assert response.sim_seconds == stale_backend.cached_cost(size)
            assert np.array_equal(
                response.rows, table[np.arange(size) % n]
            )

    def test_later_requests_do_not_copy_the_table(self, stale_backend):
        import tracemalloc

        stale_backend.serve_cached(8)  # the one recovery
        table_bytes = stale_backend._stale.nbytes
        for size in (8, 64):
            tracemalloc.start()
            try:
                stale_backend.serve_cached(size)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < table_bytes / 2, (size, peak, table_bytes)

    def test_held_table_is_read_only_and_responses_are_not(
        self, stale_backend
    ):
        first = stale_backend.serve_cached(8)
        expected = first.rows.copy()
        with pytest.raises(ValueError, match="read-only"):
            stale_backend._stale[0, 0] = 1.0
        first.rows[:] = -1.0  # the caller's to overwrite
        assert np.array_equal(stale_backend.serve_cached(8).rows, expected)


# -- the accounting invariant (property) ----------------------------------


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    trace_seed=st.integers(0, 10_000),
    n_requests=st.integers(1, 60),
    load=st.floats(0.2, 3.0),
    fault_seed=st.integers(0, 10_000),
)
def test_every_request_is_accounted(trace_seed, n_requests, load, fault_seed):
    """shed + served + deadline-exceeded (+ failed) == submitted,
    for arbitrary seeded traces and serve fault plans."""
    backend = shared_backend()
    trace = RequestTrace.synthesize(
        seed=trace_seed, n_requests=n_requests,
        per_node_cost_s=backend.compute_cost(1), load=load,
    )
    plan = FaultPlan.random_serve(seed=fault_seed)
    injector = FaultInjector(plan, MetricsRegistry())
    backend.faults = injector
    try:
        server = EmbeddingServer(
            backend, calibrated_policy(backend), faults=injector
        )
        report = server.run_trace(trace)
    finally:
        backend.faults = None
    assert report.balanced
    assert report.submitted >= n_requests
    assert {r.status for r in report.responses} <= set(RESPONSE_STATUSES)
    # The default ladders end in the always-available cached tier, so
    # nothing can fail outright.
    assert report.failed == 0
    completed = [
        r for r in report.responses
        if r.status in (STATUS_SERVED, STATUS_DEADLINE)
    ]
    assert all(
        r.latency_s is None or r.latency_s >= 0 for r in completed
    )
