"""Tests for the online-resilience layer of the sharded store.

Covers range-table edits, CRC-checksummed WAL records, WAL retention
and verified walk-back recovery (quarantine, total-corruption
abandonment), replica promotion (reactive, proactive, racing the
background checkpointer), the elastic reshard protocol (dual-route
split/merge, supervisor-driven splits, atomic swap + renumbering), the
abandoned-shard serve short-circuit, the ``staleness_bound`` SLO kind,
seeded resilience fault plans, and the shard-placement diff group.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.memsim.devices import pm_spec
from repro.memsim.persistence import (
    PersistenceDomain,
    StageCheckpointStore,
    record_checksum,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.observatory.diff import (
    GROUP_PLACEMENT,
    diff_runs,
    extract_placement_values,
)
from repro.obs.observatory.slo import (
    SLOObjective,
    SLOSpec,
    evaluate_slo,
    render_slo,
)
from repro.shard import (
    CheckpointCorruptionError,
    EmbeddingShardManager,
    PartialResultError,
    ShardCrashError,
    ShardPolicy,
    ShardRoutingTable,
    ShardSupervisor,
    SupervisorPolicy,
)

pytestmark = pytest.mark.usefixtures("no_shard_leftovers")

N_NODES = 64
DIM = 4


def _table(n_nodes: int = N_NODES, dim: int = DIM, seed: int = 0):
    return np.random.default_rng(seed).standard_normal((n_nodes, dim))


def _manager(
    table=None,
    faults=None,
    metrics=None,
    stream=None,
    **policy_overrides,
) -> EmbeddingShardManager:
    policy_overrides.setdefault("n_shards", 2)
    policy_overrides.setdefault("lookup_deadline_s", 0.2)
    table = _table() if table is None else table
    return EmbeddingShardManager(
        table,
        policy=ShardPolicy(**policy_overrides),
        faults=faults,
        metrics=metrics,
        stream=stream,
    )


class _ListStream:
    """Capture live-bus records for event assertions."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)

    def events(self, name):
        return [
            r
            for r in self.records
            if r.get("type") == "shard_event" and r.get("event") == name
        ]


def _wait_migration_ready(manager, timeout_s: float = 3.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if manager.migration_ready():
            return True
        time.sleep(0.01)
    return False


# -- range-table edits ---------------------------------------------------


class TestRangeTableEdits:
    def test_split_cuts_one_range(self):
        routing = ShardRoutingTable(ranges=((0, 10), (10, 20)))
        split = routing.split_range(0, 5)
        assert split.ranges == ((0, 5), (5, 10), (10, 20))
        assert routing.ranges == ((0, 10), (10, 20))

    def test_split_point_validation(self):
        routing = ShardRoutingTable(ranges=((0, 10), (10, 20)))
        with pytest.raises(ValueError, match="split point"):
            routing.split_range(0, 0)
        with pytest.raises(ValueError, match="split point"):
            routing.split_range(0, 10)


# -- CRC-checksummed WAL records ------------------------------------------


def _store() -> StageCheckpointStore:
    return StageCheckpointStore(PersistenceDomain(device=pm_spec()))


class TestChecksummedRecords:
    def test_checksum_covers_arrays_and_meta(self):
        arrays = {"rows": np.arange(8, dtype=np.float64)}
        crc = record_checksum(arrays, {"version": 1})
        assert crc == record_checksum(
            {"rows": np.arange(8, dtype=np.float64)}, {"version": 1}
        )
        assert crc != record_checksum(arrays, {"version": 2})
        mutated = {"rows": np.arange(8, dtype=np.float64)}
        mutated["rows"][3] += 1.0
        assert crc != record_checksum(mutated, {"version": 1})

    @pytest.mark.parametrize("mode", ["corrupt", "torn"])
    def test_damage_breaks_verification(self, mode):
        store = _store()
        store.append(
            "shard-0",
            {"rows": np.ones((4, 2))},
            {"version": 0},
        )
        record = store.records[-1]
        assert store.verify(record)
        damaged = store.damage_last(mode)
        assert damaged is record
        assert not store.verify(record)

    def test_quarantine_drops_record(self):
        store = _store()
        store.append("shard-0", {"rows": np.ones(2)}, {"version": 0})
        store.append("shard-0", {"rows": np.ones(2) * 2}, {"version": 1})
        record = store.records[-1]
        store.quarantine(record)
        assert len(store.records) == 1
        assert store.records[-1] is not record

    def test_damage_empty_store_is_noop(self):
        assert _store().damage_last("corrupt") is None


# -- WAL retention --------------------------------------------------------


_OPS = st.lists(
    st.one_of(
        st.just(("append",)),
        st.tuples(st.just("damage"), st.sampled_from(["corrupt", "torn"])),
        st.just(("last_verified",)),
        st.just(("recover_rows",)),
    ),
    max_size=40,
)


class TestWalRetention:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_retained_log_answers_like_the_full_log(self, ops):
        # A media fault lands on the record being written; one drawn
        # after a walk-back quarantined that record is skipped, as the
        # retained floor is exact only up to there (DESIGN §6e).
        full, kept = _store(), _store()
        quarantined = {"full": [], "kept": []}
        written = []  # versions appended; a record's sequence is 1-based

        def append():
            version = len(written)
            rows = np.full((4, 2), float(version))
            for store in (full, kept):
                store.append("shard-0", {"rows": rows}, {"version": version})
            kept.drop_unreachable()
            written.append(version)

        def read(name, store, ids):
            record = store.last_verified(
                lambda r: quarantined[name].append(r.sequence)
            )
            if record is None:
                return None
            return (
                record.sequence,
                record.meta["version"],
                record.arrays["rows"][ids].tolist(),
            )

        append()  # genesis
        for op, *mode in ops:
            if op == "append":
                append()
            elif op == "damage":
                newest = full.last()
                if newest is None or newest.sequence != len(written):
                    continue
                assert kept.damage_last(*mode).sequence == (
                    full.damage_last(*mode).sequence
                )
            else:
                ids = [0, 3] if op == "recover_rows" else []
                assert read("kept", kept, ids) == read("full", full, ids)
            assert quarantined["kept"] == quarantined["full"]
            sequences = [r.sequence for r in full.records]
            retained = [r.sequence for r in kept.records]
            assert retained == sequences[len(sequences) - len(retained) :]

    def test_undamaged_host_holds_two_records(self):
        manager = _manager()
        with manager:
            rng = np.random.default_rng(8)
            for _ in range(200):
                ids = rng.integers(0, N_NODES, size=4)
                manager.apply_update(ids, rng.standard_normal((4, DIM)))
                manager.checkpoint_all()
            for host in manager.hosts:
                assert len(host.checkpoints.records) <= 2
                ids = np.arange(host.row_start, host.row_end)
                rows, version = host.recover_rows(ids)
                assert version == manager.version
                assert np.array_equal(rows, manager.rows_for(host))


# -- verified walk-back recovery ------------------------------------------


class TestWalkBackRecovery:
    def test_restart_walks_back_past_damaged_checkpoint(self):
        metrics = MetricsRegistry()
        manager = _manager(metrics=metrics)
        genesis = manager.table.copy()
        with manager:
            rng = np.random.default_rng(1)
            ids = np.arange(4)
            manager.apply_update(ids, rng.standard_normal((4, DIM)))
            manager.checkpoint_all()  # v1, the record the fault damages
            manager.apply_update(ids, rng.standard_normal((4, DIM)))
            host = manager.hosts[0]
            host.inject_crash()
            assert host.inject_checkpoint_fault("checkpoint_corrupt")
            lost = host.restart()
            # The damaged v1 record was quarantined; recovery landed on
            # the genesis checkpoint, so the shard reopened at v0.
            assert host.quarantined == 1
            assert host.version == 0
            assert lost == 2
            assert host.checkpoint_version == 0
            assert metrics.value("shard.corrupt_checkpoints", shard="0") == 1
            rows, version = host.lookup(np.arange(2))
            assert version == 0
            assert np.array_equal(rows, genesis[:2])

    def test_total_corruption_raises_typed_error(self):
        manager = _manager()
        with manager:
            host = manager.hosts[0]
            host.inject_crash()
            assert host.inject_checkpoint_fault("checkpoint_torn")
            with pytest.raises(CheckpointCorruptionError) as err:
                host.restart()
            assert isinstance(err.value, ShardCrashError)
            assert err.value.quarantined == 1

    def test_supervisor_abandons_totally_corrupt_shard(self):
        metrics = MetricsRegistry()
        manager = _manager(metrics=metrics)
        with manager:
            supervisor = ShardSupervisor(manager, metrics=metrics)
            supervisor.wait_heartbeats()
            host = manager.hosts[0]
            host.inject_crash()
            host.inject_checkpoint_fault("checkpoint_corrupt")
            with pytest.raises(PartialResultError):
                manager.lookup(np.arange(N_NODES))
            assert host.abandoned
            assert supervisor.incidents[-1].action == "abandon"
            assert metrics.value("shard.abandoned", shard="0") == 1


# -- replica promotion ----------------------------------------------------


class TestPromotion:
    def test_reactive_promotion_serves_fresh_with_zero_loss(self):
        metrics = MetricsRegistry()
        manager = _manager(n_replicas=1, metrics=metrics)
        with manager:
            supervisor = ShardSupervisor(manager, metrics=metrics)
            supervisor.wait_heartbeats()
            rng = np.random.default_rng(2)
            for _ in range(3):
                ids = rng.integers(0, N_NODES, size=4)
                manager.apply_update(ids, rng.standard_normal((4, DIM)))
            manager.hosts[0].inject_crash()
            result = manager.lookup(np.arange(N_NODES))
            # The replica shares the live segment: nothing stale, and
            # the gather is bit-identical to the authoritative table.
            assert result.stale_rows == 0
            assert np.array_equal(result.rows, manager.table)
            incident = supervisor.incidents[-1]
            assert incident.action == "promote"
            assert incident.lost_versions == 0
            assert incident.recovery_s > 0
            host = manager.hosts[0]
            assert host.promotions == 1
            assert host.restarts == 0
            assert metrics.value("shard.promotions", shard="0") == 1

    def test_proactive_promotion_from_health_sweep(self):
        manager = _manager(n_replicas=1)
        with manager:
            supervisor = ShardSupervisor(manager)
            supervisor.wait_heartbeats()
            manager.hosts[0].inject_crash()
            sweep = supervisor.check()
            assert [i.action for i in sweep] == ["promote"]
            assert manager.hosts[0].alive()

    def test_promotion_restores_replica_budget(self):
        manager = _manager(n_replicas=1)
        with manager:
            host = manager.hosts[0]
            host.inject_crash()
            host.promote_replica()
            # The promoted fleet has a primary and a fresh standby.
            assert len(host.workers) == 2
            assert host.has_fresh_replica() or host.workers[1].process.is_alive()

    def test_falls_back_to_restart_without_live_replica(self):
        manager = _manager(n_replicas=1)
        with manager:
            supervisor = ShardSupervisor(manager)
            supervisor.wait_heartbeats()
            host = manager.hosts[0]
            # Kill the replica first, then the primary: no warm standby.
            replica = host.workers[1]
            replica.process.terminate()
            replica.process.join(timeout=2.0)
            host.inject_crash()
            sweep = supervisor.check()
            assert [i.action for i in sweep] == ["restart"]
            assert host.restarts == 1

    def test_promotion_races_background_checkpoint_bit_identical(self):
        # Satellite: a promotion landing between two background
        # refreshes must not disturb convergence — after catch-up the
        # store is bit-identical to the authoritative table.
        manager = _manager(
            n_replicas=1, checkpoint_interval=2, staleness_bound=2
        )
        with manager:
            supervisor = ShardSupervisor(manager)
            supervisor.wait_heartbeats()
            rng = np.random.default_rng(3)
            for i in range(8):
                ids = rng.integers(0, N_NODES, size=4)
                manager.apply_update(ids, rng.standard_normal((4, DIM)))
                if i == 3:
                    manager.hosts[0].inject_crash()
                result = manager.lookup(np.arange(0, N_NODES, 3))
                assert result.stale_rows == 0
                supervisor.check()
            assert sum(h.promotions for h in manager.hosts) >= 1
            assert sum(h.restarts for h in manager.hosts) == 0
            assert manager.refresher is not None
            assert manager.refresher.bg_checkpoints > 0
            for host in list(manager.hosts):
                manager.catch_up(host.shard_id)
            final = manager.lookup(np.arange(N_NODES))
            assert np.array_equal(final.rows, manager.table)
            assert final.stale_rows == 0


# -- combined fault sweep (drain loop) ------------------------------------


class TestCombinedFaultSweep:
    def test_hang_and_heartbeat_loss_same_shard_one_sweep(self):
        # Satellite: two faults due at the same lookup on the same
        # shard must both land (the drain loop), and recovery must
        # still converge bit-identically.
        metrics = MetricsRegistry()
        plan = FaultPlan(
            events=(
                FaultEvent("shard_hang", "shard.0", count=3, seconds=1.0),
                FaultEvent("heartbeat_loss", "shard.0", count=3),
            ),
            seed=0,
        )
        injector = FaultInjector(plan, metrics)
        manager = _manager(faults=injector, metrics=metrics)
        with manager:
            supervisor = ShardSupervisor(manager, metrics=metrics)
            supervisor.wait_heartbeats()
            for _ in range(3):
                manager.lookup(np.arange(N_NODES))
                supervisor.check()
            assert metrics.value("faults.injected", kind="shard_hang") == 1
            assert (
                metrics.value("faults.injected", kind="heartbeat_loss") == 1
            )
            assert injector.pending == 0
            # The hung shard was repaired (timeout -> restart).
            assert sum(h.restarts for h in manager.hosts) >= 1
            for host in list(manager.hosts):
                manager.catch_up(host.shard_id)
            final = manager.lookup(np.arange(N_NODES))
            assert np.array_equal(final.rows, manager.table)
            assert final.stale_rows == 0


# -- elastic reshard ------------------------------------------------------


class TestElasticReshard:
    def test_split_dual_routes_and_swaps_atomically(self):
        metrics = MetricsRegistry()
        manager = _manager(metrics=metrics)
        with manager:
            rng = np.random.default_rng(4)
            manager.begin_split(0)
            assert manager.migrating
            # Writes during the migration land on the old host *and*
            # the warming replacements.
            lo, hi = manager.routing.ranges[0]
            ids = rng.integers(lo, hi, size=6)
            manager.apply_update(ids, rng.standard_normal((6, DIM)))
            assert _wait_migration_ready(manager)
            manager.finish_migration()
            assert manager.routing.n_shards == 3
            assert manager.reshard_epoch == 1
            assert [h.shard_id for h in manager.hosts] == [0, 1, 2]
            assert metrics.value("shard.resharded_ranges") == 2
            result = manager.lookup(np.arange(N_NODES))
            assert np.array_equal(result.rows, manager.table)
            assert result.stale_rows == 0

    @pytest.mark.parametrize("rows", [(31, 10), (30, 10)])
    def test_served_rows_conserved_across_split_and_merge(self, rows):
        manager = _manager()
        with manager:
            for shard, count in enumerate(rows):
                lo, _ = manager.routing.ranges[shard]
                manager.lookup(np.arange(lo, lo + count))
            assert manager.rows_served == list(rows)
            manager.begin_split(0)
            manager.finish_migration()
            assert len(manager.rows_served) == 3
            assert sum(manager.rows_served) == sum(rows)
            manager.begin_split(2)
            manager.finish_migration()
            assert len(manager.rows_served) == 4
            assert sum(manager.rows_served) == sum(rows)

    def test_single_migration_in_flight(self):
        manager = _manager()
        with manager:
            manager.begin_split(0)
            with pytest.raises(RuntimeError, match="already in flight"):
                manager.begin_split(1)
            assert _wait_migration_ready(manager)
            manager.finish_migration()

    def test_supervisor_splits_hot_shard_on_imbalance(self):
        metrics = MetricsRegistry()
        manager = _manager(metrics=metrics)
        with manager:
            supervisor = ShardSupervisor(
                manager,
                SupervisorPolicy(
                    reshard_imbalance=1.2, reshard_min_lookups=4
                ),
                metrics=metrics,
            )
            supervisor.wait_heartbeats()
            hot_lo, hot_hi = manager.routing.ranges[0]
            rng = np.random.default_rng(5)
            deadline = time.monotonic() + 5.0
            while manager.reshard_epoch == 0 and time.monotonic() < deadline:
                manager.lookup(rng.integers(hot_lo, hot_hi, size=8))
                supervisor.check()
                time.sleep(0.01)
            assert manager.reshard_epoch >= 1, "imbalance never split"
            assert manager.routing.n_shards == 3
            assert any(
                i.action == "reshard" and i.reason == "imbalance"
                for i in supervisor.incidents
            )
            assert metrics.value("shard.reshards", shard="0") == 1
            result = manager.lookup(np.arange(N_NODES))
            assert np.array_equal(result.rows, manager.table)


# -- abandoned-shard short circuit ----------------------------------------


class TestAbandonedShortCircuit:
    def test_abandoned_serves_checkpoint_tier_without_event_spam(self):
        metrics = MetricsRegistry()
        stream = _ListStream()
        manager = _manager(metrics=metrics, stream=stream)
        with manager:
            supervisor = ShardSupervisor(
                manager, SupervisorPolicy(max_restarts=0), metrics=metrics
            )
            supervisor.wait_heartbeats()
            manager.hosts[0].inject_crash()
            first = manager.lookup(np.arange(N_NODES))
            assert first.stale_rows > 0
            assert manager.hosts[0].abandoned
            for _ in range(5):
                result = manager.lookup(np.arange(N_NODES))
                assert result.stale_rows > 0
            # One failure, one abandonment event, one hedge — the five
            # short-circuited reads spam neither counters nor the bus.
            assert len(stream.events("shard_abandoned")) == 1
            assert len(stream.events("hedged")) == 1
            assert (
                metrics.value("shard.abandoned_reads", shard="0") == 5
            )
            assert (
                metrics.value(
                    "shard.failures",
                    shard="0",
                    kind="ShardCrashError",
                )
                == 1
            )


# -- staleness bound: refresher and SLO kind ------------------------------


class TestStalenessBound:
    def test_background_refresh_bounds_version_lag(self):
        metrics = MetricsRegistry()
        manager = _manager(
            checkpoint_interval=4, staleness_bound=2, metrics=metrics
        )
        with manager:
            rng = np.random.default_rng(6)
            for _ in range(12):
                ids = rng.integers(0, N_NODES, size=4)
                manager.apply_update(ids, rng.standard_normal((4, DIM)))
                manager.lookup(np.arange(0, N_NODES, 5))
            refresher = manager.refresher
            assert refresher is not None
            assert refresher.bg_checkpoints > 0
            assert refresher.max_observed_staleness <= 2
            assert metrics.value("shard.staleness_max") == float(
                refresher.max_observed_staleness
            )
            assert refresher.sim_refresh_seconds > 0
            assert metrics.value("shard.bg_checkpoints", shard="0") > 0

    def test_slo_kind_evaluates_gauge(self):
        records = [
            {
                "type": "metric",
                "kind": "gauge",
                "name": "shard.staleness_max",
                "value": 3.0,
            }
        ]
        spec = SLOSpec(
            name="resilience",
            objectives=(
                SLOObjective(
                    name="lag", kind="staleness_bound", target=4.0
                ),
            ),
        )
        report = evaluate_slo(records, spec)
        assert report.ok
        assert report.results[0].value == 3.0
        assert report.results[0].burn_rate == pytest.approx(0.75)
        assert "3" in render_slo(report)

    def test_slo_kind_fails_past_bound(self):
        records = [
            {
                "type": "metric",
                "kind": "gauge",
                "name": "shard.staleness_max",
                "value": 5.0,
            }
        ]
        spec = SLOSpec(
            name="resilience",
            objectives=(
                SLOObjective(
                    name="lag", kind="staleness_bound", target=2.0
                ),
            ),
        )
        report = evaluate_slo(records, spec)
        assert not report.ok
        assert report.results[0].burn_rate == pytest.approx(2.5)

    def test_slo_kind_passes_when_absent(self):
        spec = SLOSpec(
            name="resilience",
            objectives=(
                SLOObjective(
                    name="lag", kind="staleness_bound", target=2.0
                ),
            ),
        )
        report = evaluate_slo([], spec)
        assert report.ok
        assert report.results[0].burn_rate == 0.0


# -- seeded resilience plans ----------------------------------------------


class TestRandomResilience:
    def test_deterministic_per_seed_and_scenario(self):
        a = FaultPlan.random_resilience(5, "promotion")
        b = FaultPlan.random_resilience(5, "promotion")
        assert a == b
        assert a != FaultPlan.random_resilience(6, "promotion")

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="scenario"):
            FaultPlan.random_resilience(0, "meteor")

    def test_scenario_shapes(self):
        promotion = FaultPlan.random_resilience(1, "promotion")
        assert all(e.kind == "shard_crash" for e in promotion.events)
        corruption = FaultPlan.random_resilience(1, "corruption")
        kinds = [e.kind for e in corruption.events]
        assert kinds[-1] == "shard_crash"
        assert kinds[0] in ("checkpoint_corrupt", "checkpoint_torn")
        # The damage lands on the same shard, before the kill.
        assert corruption.events[0].site == corruption.events[1].site
        assert corruption.events[0].count < corruption.events[1].count
        reshard = FaultPlan.random_resilience(1, "reshard")
        assert {e.kind for e in reshard.events} == {
            "shard_crash",
            "shard_hang",
        }


# -- shard-placement diff group -------------------------------------------


class TestPlacementDiff:
    def _records(self, balance):
        return [
            {
                "type": "metric",
                "kind": "gauge",
                "name": "shard.placement.balance",
                "labels": {"model": "real"},
                "value": balance,
            },
            {
                "type": "metric",
                "kind": "gauge",
                "name": "shard.placement.rows",
                "labels": {"shard": "0"},
                "value": 32.0,
            },
        ]

    def test_extract_keys_by_model_and_shard(self):
        values = extract_placement_values(self._records(1.05))
        assert values == {
            "balance[model=real]": 1.05,
            "rows[shard=0]": 32.0,
        }

    def test_diff_gated_only_when_requested(self):
        a, b = self._records(1.0), self._records(1.2)
        report = diff_runs(a, b, include_placement=True)
        placement = [
            r for r in report.rows if r.group == GROUP_PLACEMENT
        ]
        assert placement
        regressed = [
            r for r in placement if r.name == "balance[model=real]"
        ]
        assert regressed[0].status == "regressed"
        report_off = diff_runs(a, b)
        assert not [
            r for r in report_off.rows if r.group == GROUP_PLACEMENT
        ]
