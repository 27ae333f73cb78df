"""Unit tests for NaDP placements (§III-D) and ASL streaming (§III-E)."""

import pytest

from repro.core import (
    InterleavePlacement,
    LocalPlacement,
    NaDPPlacement,
    PlacementScheme,
    StreamingLoader,
    make_placement,
    optimal_partitions,
)
from repro.memsim import NumaTopology


@pytest.fixture
def topology():
    return NumaTopology(n_sockets=2)


class TestNaDP:
    def test_global_sequential_read_local_write(self, topology):
        """The NaDP principle: reads may be remote (sequential), writes
        and dense gathers are fully local."""
        plan = NaDPPlacement(topology).access_plan(0)
        assert plan.sparse_local_fraction == pytest.approx(0.5)
        assert plan.dense_local_fraction == 1.0
        assert plan.write_local_fraction == 1.0

    def test_merge_fraction(self, topology):
        plan = NaDPPlacement(topology).access_plan(1)
        assert plan.merge_remote_write_fraction == pytest.approx(0.5)

    def test_four_sockets(self):
        plan = NaDPPlacement(NumaTopology(n_sockets=4)).access_plan(2)
        assert plan.sparse_local_fraction == pytest.approx(0.25)
        assert plan.merge_remote_write_fraction == pytest.approx(0.75)


class TestOSPolicies:
    def test_interleave_splits_everything(self, topology):
        plan = InterleavePlacement(topology).access_plan(0)
        assert plan.dense_local_fraction == pytest.approx(0.5)
        assert plan.write_local_fraction == pytest.approx(0.5)
        assert plan.merge_remote_write_fraction == 0.0

    def test_local_policy_starves_remote_socket(self, topology):
        placement = LocalPlacement(topology)
        assert placement.access_plan(0).write_local_fraction == 1.0
        assert placement.access_plan(1).write_local_fraction == 0.0

    def test_factory(self, topology):
        assert isinstance(
            make_placement(PlacementScheme.NADP, topology), NaDPPlacement
        )
        assert isinstance(
            make_placement("interleave", topology), InterleavePlacement
        )
        assert isinstance(make_placement("local", topology), LocalPlacement)

    def test_access_plan_validation(self):
        from repro.core.nadp import AccessPlan

        with pytest.raises(ValueError, match="dense_local_fraction"):
            AccessPlan(
                sparse_local_fraction=0.5,
                dense_local_fraction=1.5,
                write_local_fraction=1.0,
            )


class TestOptimalPartitions:
    """Eq. 9 of the paper."""

    def test_plenty_of_dram_needs_one_partition(self):
        n = optimal_partitions(
            n_nodes=1000, dim=32, dram_budget_bytes=1e9, sparse_bytes=1e5
        )
        assert n == 1

    def test_tight_dram_needs_more_partitions(self):
        dense = 1000 * 32 * 8
        budget = 1e5 + 2 * dense + dense  # room for ~1/3 of a batch set
        n = optimal_partitions(
            n_nodes=1000, dim=32, dram_budget_bytes=budget, sparse_bytes=1e5
        )
        assert n >= 3

    def test_eq9_formula(self):
        n_nodes, dim, itemsize = 10_000, 64, 8
        sparse = 1e6
        dense = dim * n_nodes * itemsize
        budget = sparse + 2 * dense + dense / 2
        expected = -(-int(3 * dense) // int(budget - sparse - 2 * dense))
        got = optimal_partitions(n_nodes, dim, budget, sparse)
        assert got == min(max(expected, 1), dim)

    def test_degenerate_budget_splits_per_column(self):
        n = optimal_partitions(
            n_nodes=1000, dim=16, dram_budget_bytes=10.0, sparse_bytes=1e6
        )
        assert n == 16

    def test_zero_budget(self):
        assert optimal_partitions(1000, 16, 0.0, 0.0) == 16

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="n_nodes"):
            optimal_partitions(0, 16, 1e9, 0.0)


class TestStreamPlan:
    def test_total_load_time(self):
        loader = StreamingLoader(pm_seq_read_bandwidth=1e9)
        plan = loader.plan(
            n_nodes=1000, dim=32, dram_budget_bytes=1e9, sparse_bytes=0.0
        )
        dense_bytes = 1000 * 32 * 8
        assert plan.total_load_seconds == pytest.approx(dense_bytes / 1e9)
        assert plan.batch_bytes == pytest.approx(dense_bytes / plan.n_partitions)

    def test_exposed_fully_hidden_when_compute_dominates(self):
        loader = StreamingLoader(pm_seq_read_bandwidth=1e9)
        plan = loader.plan(1000, 32, 3e5, 0.0)
        assert plan.n_partitions > 1
        # Compute far larger than the load: only the first batch shows.
        exposed = plan.exposed_seconds(compute_seconds=10.0)
        assert exposed == pytest.approx(
            plan.total_load_seconds / plan.n_partitions
        )

    def test_exposed_when_load_dominates(self):
        loader = StreamingLoader(pm_seq_read_bandwidth=1e9)
        plan = loader.plan(100_000, 32, 3e6, 0.0)
        compute = plan.total_load_seconds / 100
        exposed = plan.exposed_seconds(compute)
        n = plan.n_partitions
        assert exposed == pytest.approx(
            plan.total_load_seconds - compute / n * (n - 1)
        )

    def test_single_partition_never_overlaps(self):
        loader = StreamingLoader(pm_seq_read_bandwidth=1e9)
        plan = loader.plan(1000, 32, 1e12, 0.0)
        assert plan.n_partitions == 1
        assert plan.exposed_seconds(100.0) == plan.total_load_seconds

    def test_exposed_monotone_in_partitions(self):
        """More batches -> more overlap -> less exposed time."""
        from repro.core.asl import StreamPlan

        load = 1.0
        exposed = [
            StreamPlan(
                n_partitions=n, batch_bytes=1.0, total_load_seconds=load
            ).exposed_seconds(0.5)
            for n in (1, 2, 4, 8)
        ]
        assert all(e2 <= e1 for e1, e2 in zip(exposed, exposed[1:]))

    def test_negative_compute_rejected(self):
        from repro.core.asl import StreamPlan

        plan = StreamPlan(2, 1.0, 1.0)
        with pytest.raises(ValueError, match="compute_seconds"):
            plan.exposed_seconds(-1.0)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            StreamingLoader(0.0)


class TestRetryJitter:
    """Full-jitter backoff: seeded, bounded, and off by default."""

    def _policy(self, **overrides):
        from repro.core.asl import RetryPolicy

        overrides.setdefault("jitter", "full")
        overrides.setdefault("jitter_seed", 11)
        return RetryPolicy(
            max_retries=5, base_delay_seconds=1e-3, **overrides
        )

    def test_default_is_pure_exponential(self):
        from repro.core.asl import DEFAULT_RETRY_POLICY, RetryPolicy

        policy = RetryPolicy(base_delay_seconds=1e-3)
        assert policy.jitter == "none"
        assert [policy.delay(a) for a in range(3)] == [1e-3, 2e-3, 4e-3]
        assert DEFAULT_RETRY_POLICY.jitter == "none"

    def test_full_jitter_bounded_by_exponential_cap(self):
        policy = self._policy()
        for attempt in range(6):
            cap = 1e-3 * 2.0**attempt
            assert 0.0 <= policy.delay(attempt) <= cap

    def test_seeded_sequence_replayable(self):
        one = [self._policy().delay(a) for a in range(6)]
        two = [self._policy().delay(a) for a in range(6)]
        assert one == two
        # Different seeds decorrelate the retry storm.
        other = [self._policy(jitter_seed=12).delay(a) for a in range(6)]
        assert one != other

    def test_jitter_mode_validated(self):
        from repro.core.asl import RetryPolicy

        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter="equal")

    def test_retry_delay_histogram_recorded(self):
        from repro.core.asl import RetryPolicy, StreamPlan
        from repro.faults import ASL_LOAD_SITE, FaultEvent, FaultInjector, FaultPlan
        from repro.obs.metrics import MetricsRegistry

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
            max_retries=3,
            base_delay_seconds=1e-3,
            jitter="full",
            jitter_seed=11,
        )
        plan = StreamPlan(
            n_partitions=4, batch_bytes=1024.0, total_load_seconds=0.4
        )
        outcome = loader.load(
            plan, 0.4, metrics=metrics, faults=faults, retry=policy
        )
        assert outcome.attempts == 3
        histogram = metrics.histogram("asl.retry_delay", jitter="full")
        assert histogram.count == 2
        # The recorded delays are exactly the seeded replay.
        twin = RetryPolicy(
            max_retries=3,
            base_delay_seconds=1e-3,
            jitter="full",
            jitter_seed=11,
        )
        assert histogram.sum == pytest.approx(twin.delay(0) + twin.delay(1))
