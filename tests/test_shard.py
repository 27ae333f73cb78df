"""Tests for the fault-tolerant sharded embedding store (`repro.shard`).

Covers entropy-aware range cutting and the routing table, policy
validation, scatter-gather bit-identity against the authoritative
table, deterministic shard-fault injection, the hedging ladder
(replica -> checkpoint tier -> PartialResultError), and the supervisor:
reactive crash/hang repair, the two-sweep heartbeat detector,
restart budgets, and bounded staleness accounting.
"""

import dataclasses
import platform
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.eata import entropy_aware_bounds, round_robin_bounds
from repro.faults import (
    ALL_FAULT_KINDS,
    SHARD_FAULT_KINDS,
    SHARD_SITE_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.obs.metrics import MetricsRegistry
from repro.shard import (
    STATUS_FRESH,
    STATUS_STALE,
    EmbeddingShardManager,
    Incident,
    PartialResultError,
    ShardCrashError,
    ShardHost,
    ShardPolicy,
    ShardRoutingTable,
    ShardSupervisor,
    ShardTimeoutError,
    SupervisorPolicy,
    UnsupportedPlatformError,
)
from repro.shard import host as host_module
from repro.shard import supervisor as supervisor_module
from repro.shard.supervisor import DEFAULT_RESTART_BACKOFF, MAX_RESTARTS
from repro.shard.transport import (
    HEARTBEAT_INTERVAL_S,
    MAILBOX_IDS,
    SHARD_CRASH_EXIT_CODE,
)

pytestmark = pytest.mark.usefixtures("no_shard_leftovers")

N_NODES = 64
DIM = 4


def _table(n_nodes: int = N_NODES, dim: int = DIM, seed: int = 0):
    return np.random.default_rng(seed).standard_normal((n_nodes, dim))


def _manager(
    table=None,
    degrees=None,
    faults=None,
    metrics=None,
    **policy_overrides,
) -> EmbeddingShardManager:
    policy_overrides.setdefault("n_shards", 2)
    policy_overrides.setdefault("lookup_deadline_s", 0.2)
    table = _table() if table is None else table
    return EmbeddingShardManager(
        table,
        degrees=degrees,
        policy=ShardPolicy(**policy_overrides),
        faults=faults,
        metrics=metrics,
    )


# -- ranges and routing ---------------------------------------------------


def _ranges(bounds: np.ndarray) -> list[tuple[int, int]]:
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def reference_entropy_ranges(degrees, n_shards, beta=0.41):
    """The shard cut as ``repro.shard`` once computed it by hand."""
    degrees = np.asarray(degrees, dtype=np.float64)
    n_nodes = len(degrees)
    if n_nodes == 0:
        return [(0, 0)] * n_shards
    total = float(degrees.sum())
    log_v = float(np.log(max(n_nodes, 2)))
    w_nominal = max(total / n_shards, 1.0)
    z = np.log(np.maximum(w_nominal / np.maximum(degrees, 1.0), 1.0))
    z = np.minimum(z / log_v, 1.0)
    g = 1.0 - z + beta * z
    proxy = degrees / g + 2.0
    prefix = np.concatenate([[0.0], np.cumsum(proxy)])
    targets = np.linspace(0.0, prefix[-1], n_shards + 1)
    ranges = []
    start = 0
    for shard in range(n_shards):
        if shard == n_shards - 1:
            end = n_nodes
        else:
            end = int(np.searchsorted(prefix, targets[shard + 1], side="left"))
            end = min(max(end, start), n_nodes)
        ranges.append((start, end))
        start = end
    return ranges


def reference_uniform_ranges(n_nodes, n_shards):
    bounds = np.linspace(0, n_nodes, n_shards + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(n_shards)]


def _seeded_degrees(seed: int) -> tuple[np.ndarray, int]:
    """Integer, float, all-zero and one-hub degree vectors (some empty),
    with shard counts up to and above the node count."""
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(0, 300)) if seed % 7 else int(rng.integers(0, 3))
    kind = seed % 4
    if kind == 0:
        degrees = rng.integers(0, 60, size=n_nodes)
    elif kind == 1:
        degrees = rng.pareto(1.5, size=n_nodes) * rng.uniform(0.01, 100.0)
    elif kind == 2:
        degrees = np.zeros(n_nodes, dtype=rng.choice([np.int64, np.float64]))
    else:
        degrees = rng.integers(0, 3, size=n_nodes)
        if n_nodes:
            degrees[rng.integers(n_nodes)] = int(rng.integers(1, 10**6))
    if seed % 3 == 0:
        n_shards = n_nodes + int(rng.integers(1, 8))
    else:
        n_shards = int(rng.integers(1, 17))
    return degrees, n_shards


class TestRanges:
    def test_entropy_ranges_cover_contiguously(self):
        degrees = np.random.default_rng(1).pareto(1.5, size=500) + 1.0
        ranges = _ranges(entropy_aware_bounds(degrees, 4))
        assert len(ranges) == 4
        cursor = 0
        for start, end in ranges:
            assert start == cursor
            assert end >= start
            cursor = end
        assert cursor == 500

    def test_entropy_ranges_shrink_hot_regions(self):
        # Sharply decreasing degrees: the hot head should land on a
        # smaller shard than a uniform cut would give it.
        degrees = np.linspace(1000.0, 1.0, 400) ** 2
        ranges = _ranges(entropy_aware_bounds(degrees, 4))
        first = ranges[0][1] - ranges[0][0]
        last = ranges[-1][1] - ranges[-1][0]
        assert first < 100 < last

    def test_uniform_ranges(self):
        assert _ranges(round_robin_bounds(10, 3)) == [(0, 3), (3, 6), (6, 10)]

    def test_empty_degrees(self):
        assert _ranges(entropy_aware_bounds(np.array([]), 3)) == [(0, 0)] * 3

    def test_validation(self):
        with pytest.raises(ValueError, match="n_parts"):
            entropy_aware_bounds(np.ones(4), 0)
        with pytest.raises(ValueError, match="beta"):
            entropy_aware_bounds(np.ones(4), 2, beta=0.0)
        with pytest.raises(ValueError, match="n_parts"):
            round_robin_bounds(4, 0)

    def test_cut_equals_the_hand_written_one(self):
        for seed in range(2400):
            degrees, n_shards = _seeded_degrees(seed)
            assert _ranges(entropy_aware_bounds(degrees, n_shards)) == (
                reference_entropy_ranges(degrees, n_shards)
            ), seed
            assert _ranges(round_robin_bounds(len(degrees), n_shards)) == (
                reference_uniform_ranges(len(degrees), n_shards)
            ), seed

    @pytest.mark.parametrize("n_shards", (1, 2, 3, 4))
    def test_fixture_ranges_are_pinned(self, n_shards):
        degrees = np.linspace(500.0, 1.0, N_NODES) ** 2
        pinned = {
            1: ([(0, 64)], [(0, 64)]),
            2: ([(0, 32), (32, 64)], [(0, 16), (16, 64)]),
            3: ([(0, 21), (21, 42), (42, 64)], [(0, 10), (10, 23), (23, 64)]),
            4: (
                [(0, 16), (16, 32), (32, 48), (48, 64)],
                [(0, 7), (7, 16), (16, 27), (27, 64)],
            ),
        }
        uniform, entropy = pinned[n_shards]
        assert list(_manager(n_shards=n_shards).routing.ranges) == uniform
        manager = _manager(degrees=degrees, n_shards=n_shards)
        assert list(manager.routing.ranges) == entropy
        assert entropy == reference_entropy_ranges(degrees, n_shards)

    @pytest.mark.parametrize(
        "degrees",
        (
            np.ones(50),
            np.ones(80),
            np.ones((N_NODES, 1)),
            np.full(N_NODES, np.nan),
            np.r_[np.ones(N_NODES - 1), np.inf],
            np.r_[np.ones(N_NODES - 1), -1.0],
        ),
        ids=("short", "long", "2-D", "nan", "inf", "negative"),
    )
    def test_degrees_must_fit_the_table(self, degrees):
        with pytest.raises(ValueError, match="degrees") as raised:
            _manager(degrees=degrees)
        if np.ndim(degrees) == 1 and len(degrees) != N_NODES:
            assert str(len(degrees)) in str(raised.value)
            assert str(N_NODES) in str(raised.value)


class TestRoutingTable:
    def _table(self) -> ShardRoutingTable:
        return ShardRoutingTable(ranges=((0, 5), (5, 5), (5, 12), (12, 20)))

    def test_shard_of_matches_bruteforce(self):
        routing = self._table()
        ids = np.arange(20)
        owners = routing.shard_of(ids)
        for node, owner in zip(ids, owners):
            start, end = routing.ranges[owner]
            assert start <= node < end

    def test_split_positions_roundtrip(self):
        routing = self._table()
        ids = np.array([19, 0, 7, 4, 12, 5])
        out = np.empty(len(ids), dtype=np.int64)
        for _, (positions, shard_ids) in routing.split(ids).items():
            out[positions] = shard_ids
        assert np.array_equal(out, ids)

    @staticmethod
    def _split_by_masks(routing, node_ids):
        """The former ``split``: one mask, ``flatnonzero`` and fancy
        index per owning shard.  Kept as the reference."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        owners = routing.shard_of(node_ids)
        out = {}
        for shard in np.unique(owners):
            mask = owners == shard
            out[int(shard)] = (np.flatnonzero(mask), node_ids[mask])
        return out

    @settings(max_examples=200, deadline=None)
    @given(
        ids=st.lists(st.integers(0, 19), max_size=40),
        kind=st.sampled_from(["range", "one-range"]),
    )
    def test_split_matches_mask_reference(self, ids, kind):
        routing = {
            "range": self._table(),
            "one-range": ShardRoutingTable(ranges=((0, 20),)),
        }[kind]
        got = routing.split(ids)
        want = self._split_by_masks(routing, ids)
        # Same shards in the same (ascending) order, same positions and
        # ids in the same (ascending-position) order; {} when empty.  A
        # shard that owns the whole request gets ``slice(None)``.
        assert list(got) == list(want) == sorted(want)
        for shard, (positions, shard_ids) in want.items():
            got_positions = got[shard][0]
            if isinstance(got_positions, slice):
                assert got_positions == slice(None) and len(want) == 1
                got_positions = np.arange(len(ids))
            assert np.array_equal(got_positions, positions)
            assert np.array_equal(got[shard][1], shard_ids)
            assert got_positions.dtype == positions.dtype
            assert got[shard][1].dtype == shard_ids.dtype

    @staticmethod
    def _owners_by_min_max(routing, node_ids):
        """The former validation: ``min()`` and ``max()`` of the ids,
        then the search.  Kept as the reference."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if len(node_ids):
            low, high = int(node_ids.min()), int(node_ids.max())
            if low < 0 or high >= routing.n_nodes:
                raise ValueError(
                    f"node ids outside [0, {routing.n_nodes}): [{low}, {high}]"
                )
        ends = np.asarray([end for _, end in routing.ranges])
        return np.searchsorted(ends, node_ids, side="right")

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.lists(st.integers(-3, 22), min_size=1, max_size=12),
        length=st.sampled_from([0, 1, 2, 17, MAILBOX_IDS + 1]),
        kind=st.sampled_from(["range", "one-range"]),
    )
    def test_split_and_shard_of_match_min_max_reference(
        self, base, length, kind
    ):
        # Ids cycle through ``base``, so every request but a single id
        # may repeat ids; ids outside [0, 20) must fail alike, message
        # included.
        routing = {
            "range": self._table(),
            "one-range": ShardRoutingTable(ranges=((0, 20),)),
        }[kind]
        ids = np.resize(np.asarray(base, dtype=np.int64), length)
        try:
            owners = self._owners_by_min_max(routing, ids)
        except ValueError as exc:
            for call in (routing.shard_of, routing.split):
                with pytest.raises(ValueError) as raised:
                    call(ids)
                assert str(raised.value) == str(exc)
            return
        assert np.array_equal(routing.shard_of(ids), owners)
        got = routing.split(ids)
        assert list(got) == sorted(set(owners.tolist()))
        back = np.full(len(ids), -1)
        for shard, (positions, shard_ids) in got.items():
            assert np.all(owners[positions] == shard)
            back[positions] = shard_ids
        assert np.array_equal(back, ids)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            self._table().shard_of(np.array([20]))
        with pytest.raises(ValueError, match="outside"):
            self._table().shard_of(np.array([-1]))

    def test_contiguity_enforced(self):
        with pytest.raises(ValueError, match="contiguous"):
            ShardRoutingTable(ranges=((0, 5), (6, 10)))
        with pytest.raises(ValueError, match="at least one"):
            ShardRoutingTable(ranges=())

    def test_search_boundaries_are_derived_state_only(self):
        # shard_of's precomputed range ends must not leak into equality,
        # hashing, repr or tables derived from this one.
        import pickle

        routing = self._table()
        twin = ShardRoutingTable(ranges=[[0, 5], [5, 5], [5, 12], [12, 20]])
        assert twin == routing and hash(twin) == hash(routing)
        assert "_boundaries" not in repr(routing)
        ids = np.arange(20)
        table = pickle.loads(pickle.dumps(routing))
        assert table == routing
        assert np.array_equal(table.shard_of(ids), routing.shard_of(ids))
        cut = routing.split_range(3, 15)
        assert cut == ShardRoutingTable(
            ranges=[[0, 5], [5, 5], [5, 12], [12, 15], [15, 20]]
        )
        assert cut.shard_of(np.array([14, 15])).tolist() == [3, 4]


# -- policies -------------------------------------------------------------


class TestPolicyValidation:
    def test_shard_policy(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardPolicy(n_shards=0)
        with pytest.raises(ValueError, match="n_replicas"):
            ShardPolicy(n_replicas=-1)
        with pytest.raises(ValueError, match="lookup_deadline_s"):
            ShardPolicy(lookup_deadline_s=0.0)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            ShardPolicy(checkpoint_interval=-1)
        with pytest.raises(ValueError, match="staleness_bound"):
            ShardPolicy(staleness_bound=-1)

    def test_single_valued_options_are_gone(self):
        # Contiguous ranges are the only ownership form and the policy
        # keeps only what some caller sets.
        assert [f.name for f in dataclasses.fields(ShardPolicy)] == [
            "n_shards",
            "n_replicas",
            "lookup_deadline_s",
            "hedge_enabled",
            "checkpoint_interval",
            "staleness_bound",
        ]
        with pytest.raises(TypeError, match="partition"):
            ShardPolicy(partition="hash")
        with pytest.raises(TypeError, match="node_ids"):
            ShardHost(0, _table(4), 0, ShardPolicy(), node_ids=np.arange(4))

    def test_supervisor_policy(self):
        with pytest.raises(ValueError, match="heartbeat_timeout_s"):
            SupervisorPolicy(heartbeat_timeout_s=0.0)


# -- shard fault plans ----------------------------------------------------


class TestShardFaultPlans:
    def test_kinds_registered(self):
        assert set(SHARD_FAULT_KINDS) <= set(ALL_FAULT_KINDS)

    def test_event_validation(self):
        with pytest.raises(ValueError, match="site"):
            FaultEvent(kind="shard_crash", site="propagation")
        with pytest.raises(ValueError, match="seconds"):
            FaultEvent(kind="shard_hang", site="shard.0")

    def test_random_shard_deterministic(self):
        one = FaultPlan.random_shard(seed=11)
        two = FaultPlan.random_shard(seed=11)
        assert one.events == two.events
        assert all(e.kind in SHARD_FAULT_KINDS for e in one.events)
        assert all(e.site.startswith("shard.") for e in one.events)

    def test_take_shard_fault_fires_once_at_sequence(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="shard_crash", site="shard.1", count=3),)
        )
        injector = FaultInjector(plan)
        assert injector.take(SHARD_SITE_KINDS, "shard.1", seq=2) is None
        assert injector.take(SHARD_SITE_KINDS, "shard.0", seq=3) is None
        event = injector.take(SHARD_SITE_KINDS, "shard.1", seq=3)
        assert event is not None and event.kind == "shard_crash"
        assert injector.take(SHARD_SITE_KINDS, "shard.1", seq=4) is None


# -- scatter-gather -------------------------------------------------------


def test_a_machine_without_x86_store_order_is_refused(monkeypatch):
    made = []
    monkeypatch.setattr(platform, "machine", lambda: "aarch64")
    monkeypatch.setattr(
        host_module, "create_shared_array", lambda *args: made.append(args)
    )
    manager = _manager()
    with pytest.raises(UnsupportedPlatformError, match="aarch64") as info:
        manager.start()
    assert info.value.machine == "aarch64"
    # Refused before the first segment: none was made, so none can leak
    # (``no_shard_leftovers`` checks the processes and descriptors).
    assert made == [] and manager.hosts == []


class TestScatterGather:
    def test_lookup_bit_identical(self):
        with _manager(n_shards=3) as manager:
            ids = np.array([0, 63, 17, 5, 42, 17])
            result = manager.lookup(ids)
            assert np.array_equal(result.rows, manager.table[ids])
            assert result.stale_rows == 0
            assert set(result.statuses.values()) == {STATUS_FRESH}
            assert result.sim_seconds > 0.0

    def test_full_table_gather(self):
        with _manager(n_shards=4) as manager:
            result = manager.lookup(np.arange(N_NODES))
            assert np.array_equal(result.rows, manager.table)

    def test_entropy_partitioning_used_with_degrees(self):
        degrees = np.linspace(500.0, 1.0, N_NODES) ** 2
        with _manager(degrees=degrees, n_shards=4) as manager:
            sizes = [end - start for start, end in manager.routing.ranges]
            assert sizes[0] < sizes[-1]
            result = manager.lookup(np.arange(N_NODES))
            assert np.array_equal(result.rows, manager.table)

    def test_apply_update_write_through(self):
        with _manager() as manager:
            ids = np.array([1, 40])
            rows = np.full((2, DIM), 7.5)
            version = manager.apply_update(ids, rows)
            assert version == 1
            result = manager.lookup(ids)
            assert np.array_equal(result.rows, rows)
            # Write-through keeps every shard at the table version.
            assert result.stale_rows == 0
            # Ids outside the table are refused before anything is
            # written: no row wraps around, no version moves.
            before = manager.table.copy()
            for bad in ([5, -1], [5, N_NODES]):
                with pytest.raises(ValueError, match="outside"):
                    manager.apply_update(np.array(bad), rows)
            assert np.array_equal(manager.table, before)
            assert manager.version == 1

    def test_injected_crash_hedges_to_checkpoint(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="shard_crash", site="shard.0", count=1),)
        )
        metrics = MetricsRegistry()
        injector = FaultInjector(plan, metrics)
        with _manager(faults=injector, metrics=metrics) as manager:
            ids = np.arange(N_NODES)
            result = manager.lookup(ids)
            # No updates since genesis: the checkpoint rows are the
            # table rows, so values stay identical but are flagged.
            assert np.array_equal(result.rows, manager.table)
            assert result.statuses[0] == STATUS_STALE
            assert result.statuses[1] == STATUS_FRESH
            assert result.stale_rows == manager.routing.ranges[0][1]
            assert result.stale_ranges and result.stale_ranges[0][0] == 0
            assert metrics.value("shard.hedged", target="checkpoint") == 1
            assert metrics.value("shard.stale_rows") == result.stale_rows
            assert (
                metrics.value(
                    "shard.failures", shard="0", kind="ShardCrashError"
                )
                == 1
            )

    def test_injected_crash_exit_code(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="shard_crash", site="shard.1", count=1),)
        )
        with _manager(faults=FaultInjector(plan)) as manager:
            doomed = manager.hosts[1].workers[0].process
            manager.lookup(np.arange(N_NODES))
            assert doomed.exitcode == SHARD_CRASH_EXIT_CODE

    def test_hedging_disabled_propagates_crash(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="shard_crash", site="shard.0", count=1),)
        )
        with _manager(
            faults=FaultInjector(plan), hedge_enabled=False
        ) as manager:
            with pytest.raises(ShardCrashError):
                manager.lookup(np.arange(N_NODES))

    def test_replica_hedge_stays_fresh(self):
        with _manager(n_replicas=1) as manager:
            manager.hosts[0].inject_crash()
            result = manager.lookup(np.arange(N_NODES))
            # The replica shares the live segment: identical and not stale.
            assert np.array_equal(result.rows, manager.table)
            assert result.stale_rows == 0
            assert (
                manager.metrics.value("shard.hedged", target="replica") == 1
            )

    def test_partial_result_when_no_rung_left(self):
        from repro.memsim.persistence import StageCheckpointStore

        with _manager() as manager:
            host = manager.hosts[0]
            host.inject_crash()
            # Wipe the WAL: no live worker, no replica, no checkpoint.
            host.checkpoints = StageCheckpointStore()
            with pytest.raises(PartialResultError) as err:
                manager.lookup(np.arange(N_NODES))
            (shard, start, end), = err.value.missing_ranges
            assert shard == 0
            assert (start, end) == (0, manager.routing.ranges[0][1])

    def test_hang_hits_deadline(self):
        with _manager(lookup_deadline_s=0.15) as manager:
            host = manager.hosts[0]
            host.inject_hang(0.6)
            with pytest.raises(ShardTimeoutError):
                host.lookup(np.array([0]))


# -- supervision ----------------------------------------------------------


class TestSupervisor:
    def test_reactive_crash_restart(self):
        with _manager() as manager:
            supervisor = ShardSupervisor(manager)
            manager.hosts[0].inject_crash()
            result = manager.lookup(np.arange(N_NODES))
            # The gather that observed the crash was hedged stale...
            assert result.statuses[0] == STATUS_STALE
            # ...and the supervisor repaired the shard inside the call.
            assert manager.hosts[0].restarts == 1
            assert [
                (i.reason, i.action, i.lost_versions)
                for i in supervisor.incidents
            ] == [("crash", "restart", 0)]
            fresh = manager.lookup(np.arange(N_NODES))
            assert fresh.statuses[0] == STATUS_FRESH
            assert np.array_equal(fresh.rows, manager.table)
            assert (
                manager.metrics.value(
                    "shard.restarts", shard="0", reason="crash"
                )
                == 1
            )

    def test_bounded_staleness_and_catch_up(self):
        with _manager() as manager:
            supervisor = ShardSupervisor(manager)
            host = manager.hosts[0]
            ids = np.arange(host.row_start, host.row_end)
            before = np.array(manager.table[ids], copy=True)
            manager.apply_update(ids, np.full((len(ids), DIM), 2.5))
            host.inject_crash()
            result = manager.lookup(ids)
            # The restart restored the genesis checkpoint: exactly one
            # version behind, values from before the update, flagged.
            incident = supervisor.incidents[-1]
            assert incident.lost_versions == 1
            assert result.statuses[0] == STATUS_STALE
            assert np.array_equal(result.rows, before)
            manager.catch_up(0)
            caught = manager.lookup(ids)
            assert caught.stale_rows == 0
            assert np.array_equal(caught.rows, manager.table[ids])

    def test_hang_repaired_reactively(self):
        with _manager(lookup_deadline_s=0.15) as manager:
            supervisor = ShardSupervisor(manager)
            manager.hosts[0].inject_hang(0.6)
            result = manager.lookup(np.arange(N_NODES))
            assert result.statuses[0] == STATUS_STALE
            assert supervisor.incidents[-1].reason == "hang"
            assert manager.hosts[0].restarts == 1
            fresh = manager.lookup(np.arange(N_NODES))
            assert fresh.stale_rows == 0

    def test_heartbeat_loss_needs_two_sweeps(self):
        with _manager() as manager:
            policy = SupervisorPolicy(heartbeat_timeout_s=0.2)
            supervisor = ShardSupervisor(manager, policy)
            assert supervisor.wait_heartbeats()
            manager.hosts[1].inject_mute()
            time.sleep(0.05)  # let the mute land in the worker loop
            # Sweep 1 records the baseline; nothing is repaired yet.
            assert supervisor.check() == []
            time.sleep(0.35)
            incidents = supervisor.check()
            assert [(i.shard_id, i.reason) for i in incidents] == [
                (1, "heartbeat")
            ]
            assert (
                manager.metrics.value("shard.heartbeat_misses", shard="1")
                == 1
            )
            result = manager.lookup(np.arange(N_NODES))
            assert result.stale_rows == 0

    def test_proactive_sweep_catches_silent_crash(self):
        with _manager() as manager:
            supervisor = ShardSupervisor(manager)
            manager.hosts[1].inject_crash()
            incidents = supervisor.check()
            assert [(i.shard_id, i.action) for i in incidents] == [
                (1, "restart")
            ]
            result = manager.lookup(np.arange(N_NODES))
            assert result.stale_rows == 0

    def test_paced_sweep_reads_liveness_at_the_heartbeat_pace(
        self, monkeypatch
    ):
        wall = [1000.0]
        monkeypatch.setattr(
            supervisor_module,
            "time",
            types.SimpleNamespace(monotonic=lambda: wall[0]),
        )
        with _manager() as manager:
            supervisor = ShardSupervisor(manager)
            supervisor.check_paced(sim_now=1.0)  # the first call sweeps
            manager.hosts[1].inject_crash()
            # Inside the heartbeat interval the dead primary is not
            # looked at, but the clock is stamped (the sweep below
            # carries it).
            wall[0] += HEARTBEAT_INTERVAL_S / 2
            supervisor.check_paced(sim_now=2.0)
            assert supervisor.incidents == []
            # A full sweep still reads liveness whenever it is called.
            wall[0] += HEARTBEAT_INTERVAL_S / 4
            assert [
                (i.shard_id, i.reason, i.action, i.sim_now_s)
                for i in supervisor.check()
            ] == [(1, "crash", "restart", 2.0)]
            manager.hosts[0].inject_crash()
            supervisor.check_paced(sim_now=3.0)
            assert len(supervisor.incidents) == 1
            wall[0] += HEARTBEAT_INTERVAL_S
            supervisor.check_paced(sim_now=4.0)
            assert [
                (i.shard_id, i.reason, i.action, i.sim_now_s)
                for i in supervisor.incidents[1:]
            ] == [(0, "crash", "restart", 4.0)]
            assert manager.lookup(np.arange(N_NODES)).stale_rows == 0

    def test_a_crash_between_paced_sweeps_is_repaired_by_the_lookup(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            supervisor_module,
            "time",
            types.SimpleNamespace(monotonic=lambda: 1000.0),
        )
        with _manager() as manager:
            supervisor = ShardSupervisor(manager)
            supervisor.check_paced(sim_now=1.0)
            manager.hosts[0].inject_crash()
            supervisor.check_paced(sim_now=2.0)
            result = manager.lookup(np.arange(N_NODES))
            # The read is hedged and the repair carries the request's
            # own clock stamp.
            assert result.statuses[0] == STATUS_STALE
            assert [
                (i.shard_id, i.reason, i.action, i.sim_now_s)
                for i in supervisor.incidents
            ] == [(0, "crash", "restart", 2.0)]
            assert manager.lookup(np.arange(N_NODES)).stale_rows == 0

    def test_restart_budget_abandons(self):
        with _manager() as manager:
            supervisor = ShardSupervisor(manager)
            host = manager.hosts[0]
            # MAX_RESTARTS (8) crashes restart; the ninth abandons.
            for _ in range(MAX_RESTARTS + 1):
                assert not host.abandoned
                host.inject_crash()
                result = manager.lookup(np.arange(N_NODES))
            assert host.abandoned
            assert host.restarts == MAX_RESTARTS == 8
            assert [i.action for i in supervisor.incidents] == (
                ["restart"] * 8 + ["abandon"]
            )
            assert manager.metrics.value("shard.abandoned", shard="0") == 1
            # Abandoned shards keep serving from the checkpoint tier.
            assert result.statuses[0] == STATUS_STALE
            again = manager.lookup(np.arange(N_NODES))
            assert again.statuses[0] == STATUS_STALE
            assert np.array_equal(again.rows, manager.table)

    def test_backoff_recorded_not_slept(self):
        with _manager() as manager:
            supervisor = ShardSupervisor(manager)
            manager.hosts[0].inject_crash()
            started = time.monotonic()
            manager.lookup(np.arange(N_NODES))
            elapsed = time.monotonic() - started
            incident = supervisor.incidents[-1]
            assert 0.0 <= incident.backoff_s <= 1e-3
            assert sum(i.backoff_s for i in supervisor.incidents) == (
                incident.backoff_s
            )
            # The expected replay matches a fresh copy of the schedule.
            twin = dataclasses.replace(DEFAULT_RESTART_BACKOFF)
            assert incident.backoff_s == twin.delay(0)
            # Recorded, not slept: repair is far faster than even a
            # handful of real backoffs would allow.
            assert elapsed < 5.0

    def test_supervisors_sharing_a_policy_draw_alike(self):
        # One default policy, two supervisors in turn: each draws its
        # backoffs from its own copy of the schedule, seeded alike, so
        # what the first drew does not move the second's first draw.
        policy = SupervisorPolicy()
        first = []
        for _ in range(2):
            with _manager() as manager:
                supervisor = ShardSupervisor(manager, policy)
                manager.hosts[0].inject_crash()
                manager.lookup(np.arange(N_NODES))
                first.append(supervisor.incidents[0].backoff_s)
        twin = dataclasses.replace(DEFAULT_RESTART_BACKOFF)
        assert first == [twin.delay(0)] * 2

    def test_incident_is_frozen_record(self):
        incident = Incident(shard_id=2, reason="crash", action="restart")
        with pytest.raises(AttributeError):
            incident.reason = "hang"
