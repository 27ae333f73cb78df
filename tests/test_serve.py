"""Tests for the resilient embedding server (`repro.serve`).

Covers the circuit-breaker state machine, serving policies, trace
synthesis/round-trips, the degradation ladder, liveness/readiness
probes, and — as a hypothesis property — the accounting invariant that
every submitted request resolves to exactly one terminal status, under
arbitrary seeded traces and fault plans.
"""

import json

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
from repro.serve.sharded import ShardedEmbeddingBackend
from repro.shard import ShardPolicy, SupervisorPolicy

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


def _one_request(**fields):
    """A one-request trace file's text; a ``None`` field is left out."""
    request = {
        "request_id": "r0", "arrival_s": 0.0, "klass": "interactive",
        "n_nodes": 4, "deadline_s": 1.0,
    } | fields
    return json.dumps(
        {"requests": [{k: v for k, v in request.items() if v is not None}]}
    )


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
        "text, field",
        [
            (_one_request(arrival_s=float("nan")), "arrival_s"),
            (_one_request(arrival_s=float("inf")), "arrival_s"),
            (_one_request(arrival_s="0.5"), "arrival_s"),
            (_one_request(deadline_s=float("nan")), "deadline_s"),
            (_one_request(deadline_s=float("inf")), "deadline_s"),
            (_one_request(n_nodes=2.7), "n_nodes"),
            (_one_request(n_nodes=True), "n_nodes"),
            (_one_request(klass=None), "klass"),
            (_one_request(klass=7), "klass"),
            (json.dumps({"requests": [3]}), "request must be an object"),
            (json.dumps({"requests": 5}), "'requests'"),
            (json.dumps([]), "trace must be an object"),
            ('{"requests": [', "Expecting"),
        ],
        ids=[
            "nan-arrival", "inf-arrival", "string-arrival", "nan-deadline",
            "inf-deadline", "fractional-n_nodes", "bool-n_nodes",
            "missing-klass", "int-klass", "request-not-object",
            "requests-not-list", "trace-not-object", "bad-json",
        ],
    )
    def test_load_rejects_malformed_traces(self, tmp_path, text, field):
        path = tmp_path / "trace.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="trace.json") as err:
            RequestTrace.load(path)
        assert field in str(err.value)

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
        assert np.array_equal(table, stale_backend._full)
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


# -- golden telemetry -------------------------------------------------------


def faulted_replay(metrics: MetricsRegistry):
    """A monolithic replay under a request burst and four hung calls.

    Sheds, all three ladder degradations (deadline, open breaker,
    stall) and repeated breaker trips occur.
    """
    backend = shared_backend()
    mean_service = backend.compute_cost(1) * 8.5
    plan = FaultPlan(
        events=(
            FaultEvent(kind="request_burst", site=ARRIVAL_SITE, count=10),
            FaultEvent(
                kind="backend_stall", site=BACKEND_SITE, count=4,
                seconds=500.0 * mean_service,
            ),
        )
    )
    injector = FaultInjector(plan, MetricsRegistry())
    policy = calibrated_policy(
        backend,
        queue_limit=4,
        breaker=BreakerPolicy(
            failure_threshold=2, recovery_seconds=20.0 * mean_service
        ),
    )
    trace = RequestTrace.synthesize(
        seed=3, n_requests=60,
        per_node_cost_s=backend.compute_cost(1), load=0.8,
    )
    backend.faults = injector
    try:
        server = EmbeddingServer(
            backend, policy, metrics=metrics, faults=injector
        )
        return server.run_trace(trace)
    finally:
        backend.faults = None


def one_shard_backend(metrics: MetricsRegistry) -> ShardedEmbeddingBackend:
    """A cold one-shard store whose wall-clock detectors never fire."""
    return ShardedEmbeddingBackend(
        OMeGaEmbedder(OMeGaConfig(n_threads=2, dim=8)),
        chung_lu_edges(N_NODES, 900, seed=3),
        N_NODES,
        shard_policy=ShardPolicy(
            n_shards=1, lookup_deadline_s=30.0, checkpoint_interval=5
        ),
        supervisor_policy=SupervisorPolicy(heartbeat_timeout_s=30.0),
        metrics=metrics,
    )


def sharded_trace(backend, seed: int) -> RequestTrace:
    return RequestTrace.synthesize(
        seed=seed, n_requests=40,
        per_node_cost_s=backend.compute_cost(1), load=0.5,
    )


class TestGoldenTelemetry:
    """A replay's series and summary, to the last bit.

    The literals are what the server printed before its metric handles
    were bound once per registry; binding must not move a single value.
    """

    def test_faulted_monolithic_replay(self):
        metrics = MetricsRegistry()
        report = faulted_replay(metrics)
        assert metrics.snapshot() == {
            "serve.blame_seconds{category=breaker,klass=interactive}":
                0.006557356642047524,
            "serve.blame_seconds{category=kernel,klass=interactive}":
                0.00028929514597268485,
            "serve.blame_seconds{category=queue,klass=interactive}":
                0.01958569142558232,
            "serve.blame_seconds{category=stale_fallback,klass=batch}":
                5.6028000000000006e-05,
            "serve.blame_seconds{category=stale_fallback,klass=interactive}":
                1.1340000000000002e-05,
            "serve.breaker.failures{breaker=backend}": 4.0,
            "serve.breaker.probe_successes{breaker=backend}": 2.0,
            "serve.breaker.rejections{breaker=backend}": 25.0,
            "serve.breaker.state{breaker=backend}": 0.0,
            "serve.breaker.transitions{breaker=backend,from_state=closed,"
            "to_state=open}": 1.0,
            "serve.breaker.transitions{breaker=backend,from_state=half_open,"
            "to_state=closed}": 1.0,
            "serve.breaker.transitions{breaker=backend,from_state=half_open,"
            "to_state=open}": 2.0,
            "serve.breaker.transitions{breaker=backend,from_state=open,"
            "to_state=half_open}": 3.0,
            "serve.breaker.trips{breaker=backend}": 3.0,
            "serve.degraded{reason=backend_stall}": 4.0,
            "serve.degraded{reason=breaker_open}": 25.0,
            "serve.degraded{reason=deadline}": 4.0,
            "serve.latency{klass=batch}": {
                "count": 5,
                "mean": 1.1205599999999927e-05,
                "sum": 5.6027999999999634e-05,
            },
            "serve.latency{klass=interactive}": {
                "count": 36,
                "mean": 0.0007345467559334036,
                "sum": 0.02644368321360253,
            },
            "serve.queue_depth": 0.0,
            "serve.queue_peak": 4.0,
            "serve.responses{klass=batch,status=served}": 5.0,
            "serve.responses{klass=batch,status=shed}": 3.0,
            "serve.responses{klass=interactive,status=deadline_exceeded}":
                18.0,
            "serve.responses{klass=interactive,status=served}": 18.0,
            "serve.responses{klass=interactive,status=shed}": 26.0,
            "serve.served{fidelity=full}": 8.0,
            "serve.served{fidelity=stale}": 15.0,
            "serve.submitted": 70.0,
            "serve.unhandled_exceptions": 0.0,
        }
        assert report.summary() == {
            "balanced": True,
            "deadline_exceeded": 18,
            "failed": 0,
            "fidelity": {"full": 8, "stale": 15},
            "finished_at_s": 0.010813214791981982,
            "p50_latency_s": 5.272789793128903e-05,
            "p99_latency_s": 0.0016402295605118808,
            "served": 23,
            "shed": 29,
            "submitted": 70,
            "warmup_sim_seconds": 0.0,
        }

    def test_trace_ids_unique(self):
        report = faulted_replay(MetricsRegistry())
        trace_ids = [r.trace_id for r in report.responses]
        assert None not in trace_ids
        assert len(set(trace_ids)) == len(trace_ids) == report.submitted
        assert any(".b" in r.request_id for r in report.responses)

    def test_one_shard_replay(self):
        metrics = MetricsRegistry()
        with one_shard_backend(metrics) as backend:
            backend.warm_up()
            report = EmbeddingServer(
                backend, calibrated_policy(backend)
            ).run_trace(sharded_trace(backend, seed=5))
        assert metrics.snapshot() == {
            "serve.backend.calls{fidelity=full}": 35.0,
            "serve.backend.sim_seconds{fidelity=full}": 0.005676581249386808,
            "serve.backend.warmups": 1.0,
            "serve.blame_seconds{category=kernel,klass=batch}":
                0.0048116903486946925,
            "serve.blame_seconds{category=kernel,klass=interactive}":
                0.0008648909006921163,
            "serve.blame_seconds{category=queue,klass=batch}":
                0.00040770023669559844,
            "serve.blame_seconds{category=queue,klass=interactive}":
                0.008385575072183092,
            "serve.breaker.state{breaker=backend}": 0.0,
            "serve.latency{klass=batch}": {
                "count": 8,
                "mean": 0.0006524238231737864,
                "sum": 0.005219390585390291,
            },
            "serve.latency{klass=interactive}": {
                "count": 32,
                "mean": 0.0002890770616523504,
                "sum": 0.009250465972875212,
            },
            "serve.queue_depth": 0.0,
            "serve.queue_peak": 5.0,
            "serve.responses{klass=batch,status=served}": 8.0,
            "serve.responses{klass=interactive,status=deadline_exceeded}": 5.0,
            "serve.responses{klass=interactive,status=served}": 27.0,
            "serve.served{fidelity=full}": 35.0,
            "serve.submitted": 40.0,
            "serve.unhandled_exceptions": 0.0,
            "shard.lookups": 35.0,
            "shard.placement.balance{model=distdgl}": 1.0,
            "shard.placement.balance{model=distger}": 1.0,
            "shard.placement.balance{model=real}": 1.0,
            "shard.placement.edge_cut{model=distdgl}": 0.0,
            "shard.placement.edge_cut{model=distger}": 0.0,
            "shard.placement.edge_cut{model=real}": 0.0,
            "shard.placement.nnz{shard=0}": 1732.0,
            "shard.placement.rows{shard=0}": 150.0,
            "shard.staleness_max": 0.0,
        }
        assert report.summary() == {
            "balanced": True,
            "deadline_exceeded": 5,
            "failed": 0,
            "fidelity": {"full": 35},
            "finished_at_s": 0.009383421427861407,
            "p50_latency_s": 0.00033898037049698206,
            "p99_latency_s": 0.0008879332850560606,
            "served": 35,
            "shed": 0,
            "submitted": 40,
            "warmup_sim_seconds": 0.0,
        }

    def test_handles_follow_a_new_registry(self):
        """Series land in whatever registry is attached at call time."""
        first = MetricsRegistry()
        with one_shard_backend(first) as backend:
            backend.warm_up()
            server = EmbeddingServer(backend, calibrated_policy(backend))
            server.run_trace(sharded_trace(backend, seed=5))
            before = first.snapshot()
            second = MetricsRegistry()
            server.metrics = backend.metrics = second
            backend.shards.metrics = second
            report = server.run_trace(sharded_trace(backend, seed=6))
        assert first.snapshot() == before
        served = report.fidelity_counts()["full"]
        assert second.value("serve.submitted") == report.submitted
        assert second.value("serve.served", fidelity="full") == served
        assert second.value("serve.backend.calls", fidelity="full") == (
            second.value("shard.lookups")
        )
        assert second.value("shard.lookups") >= served
        assert "shard.staleness_max" in second.snapshot()
        assert sum(
            second.value("serve.responses", status=s, klass=k)
            for s in RESPONSE_STATUSES
            for k in ("interactive", "batch")
        ) == report.submitted


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
