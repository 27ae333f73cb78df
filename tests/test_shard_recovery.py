"""Crash-at-every-boundary recovery tests for the sharded store.

A shard can die before, during, or after a WAL checkpoint commit.  The
restart contract is the same at every boundary: the shard reopens from
its last *durable* checkpoint, every recovered lookup is either
bit-identical to the authoritative table or flagged stale, and
``catch_up`` converges it back to bit-identical.  The second half
drives the same machinery through the full serving stack:
:class:`~repro.serve.sharded.ShardedEmbeddingBackend` behind an
:class:`~repro.serve.EmbeddingServer` under a seeded shard-kill plan.
"""

import numpy as np
import pytest

from repro.core import OMeGaConfig, OMeGaEmbedder
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.graphs import chung_lu_edges
from repro.memsim.clock import VirtualClock
from repro.memsim.devices import pm_spec
from repro.memsim.persistence import (
    CrashInjected,
    PersistenceDomain,
    StageCheckpointStore,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve import EmbeddingServer, RequestTrace, ServePolicy
from repro.serve.backend import FIDELITY_FULL, FIDELITY_STALE
from repro.serve.sharded import ShardedEmbeddingBackend
from repro.shard import (
    STATUS_FRESH,
    STATUS_STALE,
    EmbeddingShardManager,
    ShardCrashError,
    ShardHost,
    ShardPolicy,
    ShardSupervisor,
    SupervisorPolicy,
)

pytestmark = pytest.mark.usefixtures("no_shard_leftovers")

N_NODES = 64
DIM = 4


def _manager(ranges: str = "uniform") -> EmbeddingShardManager:
    """Equal-row ranges, or (given degrees) entropy-aware ones."""
    table = np.random.default_rng(3).standard_normal((N_NODES, DIM))
    degrees = (
        np.linspace(500.0, 1.0, N_NODES) ** 2 if ranges == "entropy" else None
    )
    return EmbeddingShardManager(
        table,
        degrees=degrees,
        policy=ShardPolicy(n_shards=2, lookup_deadline_s=0.2),
    )


# -- the three checkpoint boundaries --------------------------------------


class TestCrashBoundaries:
    def test_crash_before_checkpoint_loses_update(self):
        """Killed after a write but before its checkpoint: the write is
        lost, the recovered rows are the genesis values, flagged stale."""
        with _manager() as manager:
            supervisor = ShardSupervisor(manager)
            host = manager.hosts[0]
            ids = np.arange(host.row_start, host.row_end)
            genesis = np.array(manager.table[ids], copy=True)
            manager.apply_update(ids, np.full((len(ids), DIM), 9.0))
            host.inject_crash()
            result = manager.lookup(ids)
            assert supervisor.incidents[-1].lost_versions == 1
            assert result.statuses[0] == STATUS_STALE
            assert np.array_equal(result.rows, genesis)
            manager.catch_up(0)
            caught = manager.lookup(ids)
            assert caught.stale_rows == 0
            assert np.array_equal(caught.rows, manager.table[ids])

    def test_crash_during_checkpoint_keeps_earlier_record(self):
        """A crash inside the commit loses that record only: the
        checkpoint version does not advance and the previous checkpoint
        stays the durable recovery point."""
        with _manager() as manager:
            supervisor = ShardSupervisor(manager)
            host = manager.hosts[0]
            ids = np.arange(host.row_start, host.row_end)
            genesis = np.array(manager.table[ids], copy=True)
            manager.apply_update(ids, np.full((len(ids), DIM), 4.0))
            with pytest.raises(CrashInjected):
                host.checkpoint(crash=True)
            # The torn record never committed.
            assert host.checkpoint_version == 0
            assert host.checkpoints.last().meta["version"] == 0
            host.inject_crash()
            result = manager.lookup(ids)
            assert supervisor.incidents[-1].lost_versions == 1
            assert result.statuses[0] == STATUS_STALE
            assert np.array_equal(result.rows, genesis)

    def test_crash_after_checkpoint_recovers_bit_identical(self):
        """A durable checkpoint between the write and the crash: the
        restart loses nothing and the very next lookup is fresh."""
        with _manager() as manager:
            supervisor = ShardSupervisor(manager)
            host = manager.hosts[0]
            ids = np.arange(host.row_start, host.row_end)
            manager.apply_update(ids, np.full((len(ids), DIM), 6.0))
            manager.checkpoint_all()
            host.inject_crash()
            result = manager.lookup(ids)
            incident = supervisor.incidents[-1]
            assert incident.lost_versions == 0
            # The lookup that tripped over the dead worker was hedged to
            # the checkpoint tier, whose rows are already current...
            assert np.array_equal(result.rows, manager.table[ids])
            # ...and the restarted shard is fresh with nothing to replay.
            fresh = manager.lookup(ids)
            assert fresh.statuses[0] == STATUS_FRESH
            assert fresh.stale_rows == 0
            assert np.array_equal(fresh.rows, manager.table[ids])

    def test_restart_without_any_checkpoint_refused(self):
        table = np.random.default_rng(3).standard_normal((8, DIM))
        host = ShardHost(0, table, 0, ShardPolicy(n_shards=1))
        try:
            host.start(checkpoint=False)
            host.inject_crash()
            with pytest.raises(ShardCrashError, match="no checkpoint"):
                host.restart()
        finally:
            host.close()

    def test_repeated_crashes_at_mixed_boundaries_converge(self):
        """Crash -> recover -> update -> crash again, across boundaries;
        each recovery is stale-or-identical and catch-up converges."""
        with _manager() as manager:
            ShardSupervisor(manager)
            host = manager.hosts[1]
            ids = np.arange(host.row_start, host.row_end)
            for round_id, checkpoint_first in enumerate((True, False)):
                manager.apply_update(
                    ids, np.full((len(ids), DIM), float(round_id))
                )
                if checkpoint_first:
                    manager.checkpoint_all()
                host.inject_crash()
                result = manager.lookup(ids)
                if checkpoint_first:
                    assert np.array_equal(result.rows, manager.table[ids])
                else:
                    assert result.statuses[1] == STATUS_STALE
                manager.catch_up(1)
                caught = manager.lookup(ids)
                assert caught.stale_rows == 0
                assert np.array_equal(caught.rows, manager.table[ids])
            assert host.restarts == 2


# -- a shard that is behind stays behind until catch_up -------------------


class TestBehindShardStaysStale:
    """A shard reopened from its checkpoint misses the updates it lost.
    No later update — to another shard or to its own rows — may stamp it
    current; only ``catch_up`` does."""

    @staticmethod
    def _owned(manager, shard: int, count: int) -> np.ndarray:
        owners = manager.routing.shard_of(np.arange(N_NODES))
        return np.flatnonzero(owners == shard)[:count]

    def _lose_one_update(self, manager):
        """Update a row of shard 0, then crash and restart the shard."""
        lost, = self._owned(manager, 0, 1)
        genesis = np.array(manager.table[lost], copy=True)
        manager.apply_update([lost], np.full((1, DIM), 9.0))
        host = manager.hosts[0]
        host.inject_crash()
        assert host.restart() == 1
        return host, lost, genesis

    def _assert_stale_until_catch_up(self, manager, host, lost, genesis):
        everything = np.arange(N_NODES)
        result = manager.lookup(everything)
        # Served live, yet flagged: the rows are one update behind.
        assert result.statuses[0] == STATUS_FRESH
        assert result.stale_rows == host.n_rows
        assert np.array_equal(result.rows[lost], genesis)
        manager.catch_up(0)
        caught = manager.lookup(everything)
        assert caught.stale_rows == 0
        assert np.array_equal(caught.rows, manager.table)

    @pytest.mark.parametrize("ranges", ["uniform", "entropy"])
    def test_unrelated_update_does_not_stamp_restarted_shard(self, ranges):
        with _manager(ranges) as manager:
            host, lost, genesis = self._lose_one_update(manager)
            assert manager.lookup(np.arange(N_NODES)).stale_rows == host.n_rows
            other, = self._owned(manager, 1, 1)
            manager.apply_update([other], np.full((1, DIM), 5.0))
            self._assert_stale_until_catch_up(manager, host, lost, genesis)

    @pytest.mark.parametrize("ranges", ["uniform", "entropy"])
    def test_own_update_lands_but_does_not_stamp(self, ranges):
        with _manager(ranges) as manager:
            host, lost, genesis = self._lose_one_update(manager)
            _, own = self._owned(manager, 0, 2)
            manager.apply_update([own], np.full((1, DIM), 7.0))
            # The write went through to the live segment...
            rows, version = host.lookup(np.array([own]))
            assert np.array_equal(rows, np.full((1, DIM), 7.0))
            # ...and the shard is still at its checkpoint version.
            assert version == host.version == 0 < manager.version
            self._assert_stale_until_catch_up(manager, host, lost, genesis)

    def test_host_inside_a_migration(self):
        with _manager() as manager:
            manager.begin_split(0)
            host, lost, genesis = self._lose_one_update(manager)
            other, = self._owned(manager, 1, 1)
            manager.apply_update([other], np.full((1, DIM), 5.0))
            # Reads still go to the old host while the split is warming.
            result = manager.lookup(np.arange(N_NODES))
            assert result.stale_rows == host.n_rows
            assert np.array_equal(result.rows[lost], genesis)
            # The warming hosts took every dual-routed write and were
            # current throughout, so the swap serves fresh rows.
            manager.finish_migration()
            swapped = manager.lookup(np.arange(N_NODES))
            assert swapped.stale_rows == 0
            assert np.array_equal(swapped.rows, manager.table)


# -- the full serving stack under a shard kill ----------------------------

GRAPH_NODES = 150


def _backend(supervised: bool, faults=None, metrics=None):
    edges = chung_lu_edges(GRAPH_NODES, 900, seed=3)
    embedder = OMeGaEmbedder(
        OMeGaConfig(n_threads=2, dim=8), metrics=metrics
    )
    return ShardedEmbeddingBackend(
        embedder,
        edges,
        GRAPH_NODES,
        shard_policy=ShardPolicy(
            n_shards=2, hedge_enabled=supervised, lookup_deadline_s=0.2
        ),
        supervisor_policy=SupervisorPolicy() if supervised else None,
        faults=faults,
        metrics=metrics,
    )


def _crash_plan() -> FaultPlan:
    return FaultPlan(
        events=(FaultEvent(kind="shard_crash", site="shard.0", count=3),)
    )


class TestServeIntegration:
    def test_supervised_server_rides_through_shard_kill(self):
        metrics = MetricsRegistry()
        injector = FaultInjector(_crash_plan(), metrics)
        backend = _backend(True, faults=injector, metrics=metrics)
        try:
            backend.warm_up()
            trace = RequestTrace.synthesize(
                seed=5,
                n_requests=40,
                per_node_cost_s=backend.compute_cost(1),
                load=0.5,
                deadline_slack=60.0,
            )
            policy = ServePolicy.calibrated(backend.compute_cost(1) * 8.5)
            server = EmbeddingServer(
                backend, policy, clock=VirtualClock(), metrics=metrics
            )
            report = server.run_trace(trace)
            assert report.balanced
            assert report.failed == 0
            assert metrics.value("serve.unhandled_exceptions") == 0
            summary = backend.shard_summary()
            assert summary["restarts"] >= 1
            assert summary["lookups"] >= 3
            # The gather that saw the crash was hedged and flagged.
            assert metrics.value("serve.degraded", reason="shard_stale") >= 1
            assert any(
                response.stale_rows > 0 for response in report.responses
            )
        finally:
            backend.close()

    def test_unsupervised_server_fails_requests(self):
        metrics = MetricsRegistry()
        injector = FaultInjector(_crash_plan(), metrics)
        backend = _backend(False, faults=injector, metrics=metrics)
        try:
            backend.warm_up()
            trace = RequestTrace.synthesize(
                seed=5,
                n_requests=40,
                per_node_cost_s=backend.compute_cost(1),
                load=0.5,
                deadline_slack=60.0,
            )
            policy = ServePolicy.calibrated(backend.compute_cost(1) * 8.5)
            server = EmbeddingServer(
                backend, policy, clock=VirtualClock(), metrics=metrics
            )
            report = server.run_trace(trace)
            assert report.balanced
            # No hedging and no supervisor: the crash costs requests for
            # the rest of the trace.
            assert report.failed > 0
            assert backend.shard_summary()["restarts"] == 0
        finally:
            backend.close()

    def test_partial_result_falls_one_rung_not_the_request(self):
        metrics = MetricsRegistry()
        backend = _backend(True, metrics=metrics)
        try:
            backend.warm_up()
            backend.supervisor = None  # nobody repairs the shard
            backend.shards.on_failure = None
            host = backend.shards.hosts[0]
            host.inject_crash()
            # Wipe the WAL: the hedge of last resort has nothing left.
            host.checkpoints = StageCheckpointStore(
                PersistenceDomain(device=pm_spec())
            )
            policy = ServePolicy.calibrated(backend.compute_cost(1) * 8.5)
            server = EmbeddingServer(
                backend, policy, clock=VirtualClock(), metrics=metrics
            )
            trace = RequestTrace.synthesize(
                seed=5,
                n_requests=4,
                per_node_cost_s=backend.compute_cost(1),
                load=0.3,
                deadline_slack=60.0,
            )
            report = server.run_trace(trace)
            assert report.balanced
            assert report.failed == 0
            # Full-tier gathers raised PartialResultError, the ladder
            # fell through, and the requests still served downgraded.
            assert metrics.value("serve.degraded", reason="shard_partial") >= 1
            served = [
                r for r in report.responses if r.fidelity is not None
            ]
            assert served
            assert all(
                r.fidelity in (FIDELITY_STALE, "propagation_only")
                or r.fidelity != FIDELITY_FULL
                for r in served
            )
        finally:
            backend.close()
