"""Unit tests for the fault-injection subsystem and crash recovery."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OMeGaConfig, OMeGaEmbedder, PIPELINE_STAGES
from repro.core.asl import RetryPolicy, StreamingLoader, StreamPlan
from repro.core.config import MemoryMode, PlacementScheme
from repro.core.nadp import FALLBACK_ORDER, plan_tier_fallback
from repro.faults import (
    ARRIVAL_SITE,
    ASL_LOAD_SITE,
    SHARD_SITE_KINDS,
    FaultError,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    RetryExhaustedError,
)
from repro.graphs import chung_lu_edges
from repro.memsim.persistence import CheckpointedEmbedder
from repro.obs import MetricsRegistry


def _one_event(**fields):
    """A one-event plan payload; a ``None`` field is left out."""
    event = {"kind": "crash", "site": "graph_read"} | fields
    return {"events": [{k: v for k, v in event.items() if v is not None}]}


@pytest.fixture(scope="module")
def fault_edges():
    return chung_lu_edges(300, 2500, seed=9)


@pytest.fixture(scope="module")
def fault_config():
    return OMeGaConfig(n_threads=4, dim=8)


@pytest.fixture(scope="module")
def fresh_result(fault_edges, fault_config):
    return OMeGaEmbedder(fault_config).embed_edges(fault_edges, 300)


class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent("meteor", "factorization")
        with pytest.raises(ValueError, match="count"):
            FaultEvent("transient_load", ASL_LOAD_SITE, count=0)
        with pytest.raises(ValueError, match="factor"):
            FaultEvent("pm_degrade", "pm", factor=0.0)
        with pytest.raises(ValueError, match="phase"):
            FaultEvent("crash", "factorization", phase="during_lunch")

    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan(
            events=(
                FaultEvent("crash", "factorization", phase="before_commit"),
                FaultEvent("transient_load", ASL_LOAD_SITE, count=2),
                FaultEvent("pm_degrade", "pm", factor=0.5),
                FaultEvent("tier_loss", "propagation"),
            ),
            seed=3,
        )
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan

    @pytest.mark.parametrize(
        "payload, field",
        [
            (_one_event(kind="backend_stall", seconds=np.nan), "seconds"),
            (_one_event(kind="pm_degrade", factor=np.inf), "factor"),
            (_one_event(kind="transient_load", count=2.7), "count"),
            (_one_event(count=True), "count"),
            (_one_event(site=None), "site"),
            (_one_event(kind="shard_crash", site=3), "site"),
            (_one_event(kind=1), "kind"),
            (_one_event(phase=7), "phase"),
            ({"events": [3]}, "event"),
            ({"events": None}, "'events'"),
            ([], "plan must be an object"),
        ],
    )
    def test_load_rejects_malformed_plans(self, tmp_path, payload, field):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="plan.json") as err:
            FaultPlan.load(path)
        assert field in str(err.value)

    def test_load_accepts_seeded_plans(self, tmp_path):
        for plan in (
            FaultPlan.random_serve(5),
            FaultPlan.random_shard(7, n_shards=4),
            FaultPlan(events=(FaultEvent("crash", "factorization"),), seed=0),
        ):
            assert FaultPlan.load(plan.save(tmp_path / "plan.json")) == plan

    def test_exceptions_are_typed(self):
        assert issubclass(InjectedCrash, FaultError)
        assert issubclass(RetryExhaustedError, FaultError)
        assert issubclass(FaultError, RuntimeError)


class TestFaultInjector:
    def test_crash_consumed_once(self):
        event = FaultEvent("crash", "factorization")
        injector = FaultInjector(FaultPlan(events=(event,)))
        assert injector.take("crash", "graph_read") is None
        assert injector.take("crash", "factorization") is event
        assert injector.take("crash", "factorization") is None

    def test_crash_phase_must_match(self):
        plan = FaultPlan(
            events=(
                FaultEvent("crash", "factorization", phase="before_commit"),
            )
        )
        injector = FaultInjector(plan)
        assert (
            injector.take("crash", "factorization", phase="after_commit")
            is None
        )
        assert (
            injector.take("crash", "factorization", phase="before_commit")
            is not None
        )

    def test_transient_count(self):
        plan = FaultPlan(
            events=(FaultEvent("transient_load", ASL_LOAD_SITE, count=2),)
        )
        injector = FaultInjector(plan)
        assert injector.take("transient_load", ASL_LOAD_SITE) is not None
        assert injector.take("transient_load", ASL_LOAD_SITE) is not None
        assert injector.take("transient_load", ASL_LOAD_SITE) is None

    def test_pm_derate_persists(self):
        plan = FaultPlan(
            events=(FaultEvent("pm_degrade", "pm", factor=0.5),)
        )
        metrics = MetricsRegistry()
        injector = FaultInjector(plan, metrics)
        assert injector.pm_derate() == 0.5
        assert injector.pm_derate() == 0.5  # does not recover
        # ...but the injection is only counted once.
        assert metrics.counter("faults.injected", kind="pm_degrade").value == 1

    def test_injections_recorded_in_metrics(self):
        plan = FaultPlan(
            events=(
                FaultEvent("crash", "graph_read"),
                FaultEvent("tier_loss", "propagation"),
            )
        )
        metrics = MetricsRegistry()
        injector = FaultInjector(plan, metrics)
        injector.take("crash", "graph_read", phase="after_commit")
        injector.take("tier_loss", "propagation")
        assert metrics.counter("faults.injected", kind="crash").value == 1
        assert metrics.counter("faults.injected", kind="tier_loss").value == 1
        assert injector.pending == 0

    def test_pending_counts_firings(self):
        """One-shot kinds arm one firing, whatever their ``count`` means."""
        plan = FaultPlan(
            events=(
                FaultEvent("shard_crash", "shard.0", count=30),
                FaultEvent("request_burst", ARRIVAL_SITE, count=12),
                FaultEvent("pm_degrade", "pm", factor=0.5),
            )
        )
        injector = FaultInjector(plan)
        assert injector.pending == 3
        assert injector.take(SHARD_SITE_KINDS, "shard.0", seq=30) is not None
        assert injector.take("request_burst", ARRIVAL_SITE) is not None
        assert injector.pm_derate() == 0.5
        assert injector.pending == 0


class TestRetry:
    def _plan(self):
        return StreamPlan(
            n_partitions=4, batch_bytes=1024.0, total_load_seconds=0.4
        )

    def test_retry_charges_simulated_clock(self):
        loader = StreamingLoader(pm_seq_read_bandwidth=1e9)
        faults = FaultInjector(
            FaultPlan(
                events=(
                    FaultEvent("transient_load", ASL_LOAD_SITE, count=2),
                )
            )
        )
        metrics = MetricsRegistry()
        policy = RetryPolicy(
            max_retries=3, base_delay_seconds=1e-3, multiplier=2.0
        )
        outcome = loader.load(
            self._plan(), 0.4, metrics=metrics, faults=faults, retry=policy
        )
        assert outcome.attempts == 3
        # Two wasted batches (0.1 each) plus backoff 1ms + 2ms.
        assert outcome.retry_seconds == pytest.approx(0.2 + 0.003)
        assert outcome.total_seconds > outcome.exposed_seconds
        assert metrics.counter("asl.retries").value == 2
        assert metrics.counter("asl.retry_seconds").value == pytest.approx(
            outcome.retry_seconds
        )

    def test_retry_exhaustion_raises_typed_error(self):
        loader = StreamingLoader(pm_seq_read_bandwidth=1e9)
        faults = FaultInjector(
            FaultPlan(
                events=(
                    FaultEvent("transient_load", ASL_LOAD_SITE, count=10),
                )
            )
        )
        policy = RetryPolicy(max_retries=2)
        with pytest.raises(RetryExhaustedError) as err:
            loader.load(self._plan(), 0.4, faults=faults, retry=policy)
        assert err.value.site == ASL_LOAD_SITE
        assert err.value.attempts == 3

    def test_no_faults_single_attempt(self):
        loader = StreamingLoader(pm_seq_read_bandwidth=1e9)
        outcome = loader.load(self._plan(), 0.4)
        assert outcome.attempts == 1
        assert outcome.retry_seconds == 0.0

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)


class TestTierFallback:
    def test_fallback_order_walks_capacity(self):
        # Fits one socket's DRAM share -> local.
        assert (
            plan_tier_fallback(100.0, 1000.0, 2, 0.5).action == "local_dram"
        )
        # Fits aggregate DRAM only -> remote (interleaved).
        assert (
            plan_tier_fallback(700.0, 1000.0, 2, 0.5).action == "remote_dram"
        )
        # Does not fit DRAM -> re-plan ASL with a tighter budget.
        replan = plan_tier_fallback(5000.0, 1000.0, 2, 0.5)
        assert replan.action == "asl_replan"
        assert replan.config_overrides["dram_headroom"] == 0.25

    def test_fallback_actions_named(self):
        assert ("local_dram", "remote_dram", "asl_replan") == FALLBACK_ORDER

    def test_dram_fallbacks_disable_streaming(self):
        fallback = plan_tier_fallback(100.0, 1000.0, 2, 0.5)
        assert fallback.config_overrides["memory_mode"] is MemoryMode.DRAM_ONLY
        assert fallback.config_overrides["placement"] is PlacementScheme.LOCAL
        assert fallback.config_overrides["streaming_enabled"] is False

    def test_degraded_run_records_metrics(self, fault_edges, fault_config):
        plan = FaultPlan(events=(FaultEvent("tier_loss", "factorization"),))
        metrics = MetricsRegistry()
        injector = FaultInjector(plan, metrics)
        embedder = OMeGaEmbedder(
            fault_config, metrics=metrics, faults=injector
        )
        result = embedder.embed_edges(fault_edges, 300)
        assert result.embedding.shape == (300, 8)
        labelled = [
            metric
            for metric in metrics
            if metric.name == "nadp.degraded_placements"
        ]
        assert sum(c.value for c in labelled) == 1
        assert metrics.counter("faults.injected", kind="tier_loss").value == 1

    def test_degraded_run_preserves_quality(
        self, fault_edges, fault_config, fresh_result
    ):
        plan = FaultPlan(events=(FaultEvent("tier_loss", "graph_read"),))
        injector = FaultInjector(plan)
        embedder = OMeGaEmbedder(fault_config, faults=injector)
        degraded = embedder.embed_edges(fault_edges, 300)
        # Placement is cost-only; degradation never changes the numbers.
        assert np.array_equal(degraded.embedding, fresh_result.embedding)


class TestCrashRecovery:
    @pytest.mark.parametrize("stage", PIPELINE_STAGES)
    @pytest.mark.parametrize("phase", ["after_commit", "before_commit"])
    def test_crash_at_every_stage_boundary_resumes_identically(
        self, stage, phase, fault_edges, fault_config, fresh_result
    ):
        plan = FaultPlan(events=(FaultEvent("crash", stage, phase=phase),))
        metrics = MetricsRegistry()
        injector = FaultInjector(plan, metrics)
        checkpointed = CheckpointedEmbedder(
            OMeGaEmbedder(fault_config, metrics=metrics)
        )
        with pytest.raises(InjectedCrash) as err:
            checkpointed.embed_with_checkpoints(
                fault_edges, 300, faults=injector
            )
        assert err.value.site == stage
        expected_durable = list(
            PIPELINE_STAGES[: PIPELINE_STAGES.index(stage)]
        )
        if phase == "after_commit":
            expected_durable.append(stage)
        assert checkpointed.wal.stages == expected_durable

        result = checkpointed.resume(faults=injector)
        assert np.array_equal(result.embedding, fresh_result.embedding)
        assert result.sim_seconds == fresh_result.sim_seconds
        assert result.n_spmm == fresh_result.n_spmm
        assert metrics.counter("checkpoint.resumed_runs").value == 1
        assert metrics.counter(
            "checkpoint.recovered_stages"
        ).value == len(expected_durable)

    def test_recovered_seconds_grow_with_the_durable_prefix(
        self, fault_edges, fault_config
    ):
        """A crash after a stage's WAL commit recovers that stage's work
        (so more than one before it); only a crash in the first stage
        may recover nothing."""
        recovered = {}
        for stage in PIPELINE_STAGES:
            for phase in ("after_commit", "before_commit"):
                plan = FaultPlan(
                    events=(FaultEvent("crash", stage, phase=phase),)
                )
                metrics = MetricsRegistry()
                injector = FaultInjector(plan, metrics)
                checkpointed = CheckpointedEmbedder(
                    OMeGaEmbedder(fault_config, metrics=metrics)
                )
                with pytest.raises(InjectedCrash):
                    checkpointed.embed_with_checkpoints(
                        fault_edges, 300, faults=injector
                    )
                checkpointed.resume(faults=injector)
                recovered[stage, phase] = metrics.counter(
                    "checkpoint.recovered_sim_seconds"
                ).value
        for stage in PIPELINE_STAGES[1:]:
            assert recovered[stage, "after_commit"] > 0.0
            assert (
                recovered[stage, "after_commit"]
                >= recovered[stage, "before_commit"]
            )

    def test_recovered_sim_seconds_reported(
        self, fault_edges, fault_config, fresh_result
    ):
        plan = FaultPlan(events=(FaultEvent("crash", "factorization"),))
        metrics = MetricsRegistry()
        injector = FaultInjector(plan, metrics)
        checkpointed = CheckpointedEmbedder(
            OMeGaEmbedder(fault_config, metrics=metrics)
        )
        with pytest.raises(InjectedCrash):
            checkpointed.embed_with_checkpoints(
                fault_edges, 300, faults=injector
            )
        result = checkpointed.resume()
        recovered = metrics.counter(
            "checkpoint.recovered_sim_seconds"
        ).value
        assert 0.0 < recovered < result.sim_seconds
        # Recovered + recomputed partitions the uninterrupted total.
        assert result.sim_seconds == fresh_result.sim_seconds

    def test_multiple_crashes_resume_repeatedly(
        self, fault_edges, fault_config, fresh_result
    ):
        plan = FaultPlan(
            events=(
                FaultEvent("crash", "graph_read"),
                FaultEvent("crash", "propagation", phase="before_commit"),
            )
        )
        injector = FaultInjector(plan)
        checkpointed = CheckpointedEmbedder(OMeGaEmbedder(fault_config))
        with pytest.raises(InjectedCrash):
            checkpointed.embed_with_checkpoints(
                fault_edges, 300, faults=injector
            )
        with pytest.raises(InjectedCrash):
            checkpointed.resume(faults=injector)
        result = checkpointed.resume(faults=injector)
        assert np.array_equal(result.embedding, fresh_result.embedding)

    TWO_CRASHES = FaultPlan(
        events=(
            FaultEvent("crash", "graph_read"),
            FaultEvent("crash", "propagation", phase="before_commit"),
        )
    )

    def test_run_to_completion_resumes_once_per_crash(
        self, fault_edges, fault_config, fresh_result
    ):
        metrics = MetricsRegistry()
        checkpointed = CheckpointedEmbedder(
            OMeGaEmbedder(fault_config, metrics=metrics)
        )
        seen = []
        result = checkpointed.run_to_completion(
            fault_edges,
            300,
            faults=FaultInjector(self.TWO_CRASHES, metrics),
            on_crash=lambda crash, resuming: seen.append(
                (crash.site, resuming)
            ),
        )
        assert seen == [("graph_read", True), ("propagation", True)]
        assert metrics.counter("checkpoint.resumed_runs").value == 2
        assert np.array_equal(result.embedding, fresh_result.embedding)
        assert result.sim_seconds == fresh_result.sim_seconds

    def test_run_to_completion_without_resume_reraises_first_crash(
        self, fault_edges, fault_config
    ):
        checkpointed = CheckpointedEmbedder(OMeGaEmbedder(fault_config))
        seen = []
        with pytest.raises(InjectedCrash) as err:
            checkpointed.run_to_completion(
                fault_edges,
                300,
                faults=FaultInjector(self.TWO_CRASHES),
                resume=False,
                on_crash=lambda crash, resuming: seen.append(
                    (crash.site, resuming)
                ),
            )
        assert err.value.site == "graph_read"
        assert seen == [("graph_read", False)]
        assert checkpointed.wal.stages == ["graph_read"]

    def test_run_to_completion_fault_free_is_one_checkpointed_run(
        self, fault_edges, fault_config, fresh_result
    ):
        checkpointed = CheckpointedEmbedder(OMeGaEmbedder(fault_config))
        result = checkpointed.run_to_completion(fault_edges, 300)
        assert np.array_equal(result.embedding, fresh_result.embedding)
        assert checkpointed.wal.stages == list(PIPELINE_STAGES)

    def test_resume_without_run_rejected(self, fault_config):
        checkpointed = CheckpointedEmbedder(OMeGaEmbedder(fault_config))
        with pytest.raises(RuntimeError, match="nothing to resume"):
            checkpointed.resume()

    def test_wal_commit_charges_persistence(self, fault_edges, fault_config):
        checkpointed = CheckpointedEmbedder(OMeGaEmbedder(fault_config))
        checkpointed.embed_with_checkpoints(fault_edges, 300)
        # One WAL record per stage, each with two fences; the
        # propagation record is the commit and holds the embedding only.
        assert checkpointed.domain.fences == 2 * len(PIPELINE_STAGES)
        assert checkpointed.checkpoint_sim_seconds > 0
        assert set(checkpointed.wal.last().arrays) == {"embedding"}

    @pytest.mark.parametrize("stage", PIPELINE_STAGES)
    @pytest.mark.parametrize("phase", ["after_commit", "before_commit"])
    def test_crashed_rerun_keeps_the_previous_commit(
        self, stage, phase, fault_edges, fault_config, fresh_result
    ):
        other_edges = chung_lu_edges(240, 2000, seed=3)
        fresh_other = OMeGaEmbedder(fault_config).embed_edges(
            other_edges, 240
        )
        metrics = MetricsRegistry()
        checkpointed = CheckpointedEmbedder(
            OMeGaEmbedder(fault_config, metrics=metrics)
        )
        first = checkpointed.embed_with_checkpoints(fault_edges, 300)
        assert np.array_equal(first.embedding, fresh_result.embedding)
        injector = FaultInjector(
            FaultPlan(events=(FaultEvent("crash", stage, phase=phase),))
        )
        with pytest.raises(InjectedCrash):
            checkpointed.embed_with_checkpoints(
                other_edges, 240, faults=injector
            )
        # The second run's commit is durable only once its propagation
        # record is: until then the first run's embedding is recovered.
        committed = (stage, phase) == ("propagation", "after_commit")
        expected = fresh_other if committed else first
        recovered = checkpointed.recover_embedding()
        assert recovered.tobytes() == expected.embedding.tobytes()

        resumed = checkpointed.resume(faults=injector)
        assert resumed.embedding.tobytes() == fresh_other.embedding.tobytes()
        assert resumed.sim_seconds == fresh_other.sim_seconds
        assert resumed.n_spmm == fresh_other.n_spmm
        durable = PIPELINE_STAGES.index(stage) + (phase == "after_commit")
        assert metrics.counter(
            "checkpoint.recovered_stages"
        ).value == durable
        assert np.array_equal(
            checkpointed.recover_embedding(), fresh_other.embedding
        )


class TestFaultyStreamingRuns:
    def test_pm_degrade_slows_but_preserves_output(
        self, fault_edges, fault_config, fresh_result
    ):
        plan = FaultPlan(
            events=(FaultEvent("pm_degrade", "pm", factor=0.25),)
        )
        injector = FaultInjector(plan)
        embedder = OMeGaEmbedder(fault_config, faults=injector)
        degraded = embedder.embed_edges(fault_edges, 300)
        assert np.array_equal(degraded.embedding, fresh_result.embedding)
        assert degraded.sim_seconds > fresh_result.sim_seconds

    def test_transient_faults_retry_and_preserve_output(
        self, fault_edges, fault_config, fresh_result
    ):
        plan = FaultPlan(
            events=(FaultEvent("transient_load", ASL_LOAD_SITE, count=3),)
        )
        metrics = MetricsRegistry()
        injector = FaultInjector(plan, metrics)
        embedder = OMeGaEmbedder(
            fault_config, metrics=metrics, faults=injector
        )
        result = embedder.embed_edges(fault_edges, 300)
        assert np.array_equal(result.embedding, fresh_result.embedding)
        assert metrics.counter("asl.retries").value == 3
        assert result.sim_seconds > fresh_result.sim_seconds


@settings(max_examples=8, deadline=None)
@given(
    stage=st.sampled_from(PIPELINE_STAGES),
    phase=st.sampled_from(["after_commit", "before_commit"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_resume_equals_fresh_run_property(stage, phase, seed):
    """Resume after any single crash reproduces the fresh run exactly."""
    edges = chung_lu_edges(120, 700, seed=seed % 7)
    config = OMeGaConfig(n_threads=2, dim=8, seed=seed)
    fresh = OMeGaEmbedder(config).embed_edges(edges, 120)

    plan = FaultPlan(events=(FaultEvent("crash", stage, phase=phase),))
    injector = FaultInjector(plan)
    checkpointed = CheckpointedEmbedder(OMeGaEmbedder(config))
    with pytest.raises(InjectedCrash):
        checkpointed.embed_with_checkpoints(edges, 120, faults=injector)
    resumed = checkpointed.resume(faults=injector)
    assert np.array_equal(resumed.embedding, fresh.embedding)
    assert resumed.sim_seconds == fresh.sim_seconds
