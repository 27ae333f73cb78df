"""Tests for the shard transport: one duplex pipe per worker, the
version watermark in shared memory, send-all-then-receive scatter.

Everything goes through public ``ShardHost`` / ``EmbeddingShardManager``
calls.  What is pinned here is the behaviour the transport owes the rest
of the store: a dead worker reads as a crash at once (EOF, not the
deadline), a hung one as a timeout whose late ack is dropped, shards
gather side by side, no message size deadlocks the pipe, updates cost
the workers nothing, nothing — thread, fd, process or segment —
outlives ``close()`` on any path, and every message is a binary frame
that nothing on the host side pickles or unpickles.
"""

import gc
import glob
import multiprocessing
import os
import signal
import threading
import time
import types
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.parallel import shutdown_shared_executors, shutdown_threads_executors
from repro.shard import (
    STATUS_FRESH,
    STATUS_REPLICA,
    STATUS_STALE,
    EmbeddingShardManager,
    ShardCrashError,
    ShardPolicy,
    ShardTimeoutError,
)
from repro.shard import store as store_module

pytestmark = pytest.mark.usefixtures("no_shard_leftovers")

N_NODES = 64
DIM = 4


def _manager(n_nodes=N_NODES, dim=DIM, metrics=None, **policy):
    policy.setdefault("n_shards", 2)
    table = np.random.default_rng(5).standard_normal((n_nodes, dim))
    return EmbeddingShardManager(
        table, policy=ShardPolicy(**policy), metrics=metrics
    )


# -- (i) typed outcomes ----------------------------------------------------


class TestTypedOutcomes:
    def test_killed_worker_is_eof_not_deadline(self):
        with _manager(lookup_deadline_s=30.0) as manager:
            host = manager.hosts[0]
            host.inject_hang(20.0)  # the call below cannot be answered
            pid = host.workers[0].process.pid
            killer = threading.Timer(0.1, os.kill, (pid, signal.SIGKILL))
            killer.start()
            started = time.monotonic()
            try:
                with pytest.raises(ShardCrashError, match="died mid-call"):
                    host.lookup(np.array([0]))
            finally:
                killer.join(timeout=5.0)
            assert time.monotonic() - started < 5.0
            with pytest.raises(ShardCrashError, match="dead"):
                host.lookup(np.array([0]))

    def test_short_hang_is_served_fresh(self):
        with _manager(lookup_deadline_s=5.0) as manager:
            # The worker starts its sleep when the message lands, which
            # can be before inject_hang returns: time from before it.
            started = time.monotonic()
            manager.hosts[0].inject_hang(0.2)
            result = manager.lookup(np.arange(N_NODES))
            assert time.monotonic() - started >= 0.2
            assert set(result.statuses.values()) == {STATUS_FRESH}
            assert np.array_equal(result.rows, manager.table)

    def test_late_ack_of_timed_out_call_is_dropped(self):
        with _manager(lookup_deadline_s=0.15) as manager:
            host = manager.hosts[0]
            host.inject_hang(0.5)
            with pytest.raises(ShardTimeoutError):
                host.lookup(np.array([1, 2]))
            # Still hung: the worker owes the first ack, so the second
            # call times out without piling another request behind it.
            with pytest.raises(ShardTimeoutError):
                host.lookup(np.array([3]))
            time.sleep(0.5)
            # Awake: the owed ack (rows 1, 2) is dropped, not returned.
            rows, version = host.lookup(np.array([7, 5]))
            assert np.array_equal(rows, manager.table[[7, 5]])
            assert version == 0


# -- (ii) shards gather side by side ---------------------------------------


class TestOverlap:
    def test_four_hung_shards_cost_one_hang(self):
        with _manager(n_shards=4, lookup_deadline_s=2.0) as manager:
            manager.lookup(np.arange(N_NODES))  # warm every worker
            for host in manager.hosts:
                host.inject_hang(0.1)
            started = time.monotonic()
            result = manager.lookup(np.arange(N_NODES))
            elapsed = time.monotonic() - started
            assert 0.1 <= elapsed < 0.3  # sequential would be >= 0.4
            assert list(result.statuses.values()) == [STATUS_FRESH] * 4
            assert np.array_equal(result.rows, manager.table)

    def test_one_shard_past_deadline_hedges_alone(self):
        metrics = MetricsRegistry()
        with _manager(
            n_shards=4, lookup_deadline_s=0.2, metrics=metrics
        ) as manager:
            failures = []
            manager.on_failure = lambda shard, exc: failures.append(
                (shard, type(exc))
            )
            manager.hosts[1].inject_hang(1.0)
            result = manager.lookup(np.arange(N_NODES))
            assert result.statuses == {
                0: STATUS_FRESH,
                1: STATUS_STALE,
                2: STATUS_FRESH,
                3: STATUS_FRESH,
            }
            assert failures == [(1, ShardTimeoutError)]
            assert metrics.value("shard.hedged", target="checkpoint") == 1
            assert (
                metrics.value(
                    "shard.failures", shard="1", kind="ShardTimeoutError"
                )
                == 1
            )
            assert result.stale_rows == manager.hosts[1].n_rows
            assert np.array_equal(result.rows, manager.table)


# -- (iii) no deadlock at size ----------------------------------------------


class TestBigMessages:
    def test_request_and_reply_larger_than_the_socket_buffer(self):
        n_nodes, dim = 40_000, 64
        with _manager(n_nodes, dim, lookup_deadline_s=60.0) as manager:
            # Each of the two shards is asked for 40 000 rows (a 320 KB
            # id batch) and answers 20 MB; both requests are written
            # before either reply is read.
            ids = np.tile(np.arange(n_nodes), 2)
            big = manager.lookup(ids)
            assert np.array_equal(big.rows, manager.table[ids])
            host = manager.hosts[0]
            own = np.tile(np.arange(host.row_start, host.row_end), 2)
            host.inject_hang(0.5)
            with pytest.raises(ShardTimeoutError):
                host.lookup(own, deadline_s=0.2)
            # The worker now writes a 20 MB ack nobody asked to read;
            # the next call must take it off the pipe before it writes.
            rows, _ = host.lookup(own)
            assert np.array_equal(rows, manager.table[own])
            again = manager.lookup(ids)
            assert again.stale_rows == 0
            assert np.array_equal(again.rows, manager.table[ids])


# -- (iv) updates cost the workers nothing ----------------------------------


class TestWatermark:
    def test_updates_without_lookups_leave_nothing_queued(self):
        with _manager(n_replicas=1, lookup_deadline_s=5.0) as manager:
            started = time.monotonic()
            for step in range(200):
                manager.apply_update(
                    np.array([step % N_NODES]), np.full((1, DIM), float(step))
                )
            assert time.monotonic() - started < 5.0
            assert manager.version == 200
            for host in manager.hosts:
                # Nothing was sent, so nothing is waiting to be read.
                assert not any(w.conn.poll() for w in host.workers)
                for replica in (0, 1):
                    ids = np.array([host.row_start])
                    rows, version = host.lookup(ids, replica=replica)
                    assert version == 200
                    assert np.array_equal(rows, manager.table[ids])
            result = manager.lookup(np.arange(N_NODES))
            assert result.stale_rows == 0
            assert np.array_equal(result.rows, manager.table)


# -- (v) nothing outlives close() -------------------------------------------


def _leftovers():
    """(open fds, child processes, this process's shard segments)."""
    gc.collect()
    return (
        len(os.listdir("/proc/self/fd")),
        len(multiprocessing.active_children()),
        sorted(glob.glob(f"/dev/shm/shard-{os.getpid()}-*")),
    )


def _wait_warm(manager, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not manager.migration_ready():
        assert time.monotonic() < deadline, "warming hosts never beat"
        time.sleep(0.01)


def _clean_run(manager):
    manager.apply_update(np.array([3]), np.ones((1, DIM)))
    assert manager.lookup(np.arange(N_NODES)).stale_rows == 0


def _crash_and_restart(manager):
    manager.hosts[0].inject_crash()
    assert manager.lookup(np.arange(N_NODES)).statuses[0] == STATUS_REPLICA
    manager.hosts[0].restart()
    assert manager.lookup(np.arange(N_NODES)).stale_rows == 0


def _promote(manager):
    manager.hosts[1].inject_crash()
    manager.hosts[1].promote_replica()
    assert manager.lookup(np.arange(N_NODES)).stale_rows == 0


def _split(manager):
    manager.begin_split(0)
    _wait_warm(manager)
    manager.finish_migration()
    assert manager.routing.n_shards == 3
    assert manager.lookup(np.arange(N_NODES)).stale_rows == 0


def _split_left_in_flight(manager):
    manager.begin_split(0)
    assert manager.migrating


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
class TestNothingLeaks:
    @pytest.fixture(autouse=True)
    def _baseline(self):
        # One throwaway store first: the resource tracker, the shared
        # heap's arena and its fd are created once per process and stay.
        with _manager(n_replicas=1) as manager:
            manager.lookup(np.arange(N_NODES))
        self.baseline = _leftovers()

    def test_coordinator_runs_no_feeder_thread(self):
        # The process-wide SpMM pools are not the coordinator's: an
        # earlier engine test may have left a shared-memory pool's
        # queue feeder thread running.
        shutdown_shared_executors()
        shutdown_threads_executors()
        before = set(threading.enumerate())
        with _manager(n_replicas=1) as manager:
            _clean_run(manager)
            assert set(threading.enumerate()) == before
            assert not any(
                "QueueFeederThread" in thread.name
                for thread in threading.enumerate()
            )

    @pytest.mark.parametrize(
        "scenario",
        [
            _clean_run,
            _crash_and_restart,
            _promote,
            _split,
            _split_left_in_flight,
        ],
    )
    def test_close_returns_to_baseline(self, scenario):
        with _manager(n_replicas=1, lookup_deadline_s=5.0) as manager:
            scenario(manager)
        del manager
        assert _leftovers() == self.baseline

    def test_failed_start_returns_to_baseline(self, monkeypatch):
        ctx = store_module.mp_context()

        class ThirdStartFails(ctx.Process):
            starts = 0

            def start(self):
                ThirdStartFails.starts += 1
                if ThirdStartFails.starts == 3:
                    raise OSError("no more processes")
                super().start()

        failing = types.SimpleNamespace(
            Pipe=ctx.Pipe,
            Value=ctx.Value,
            RawValue=ctx.RawValue,
            Process=ThirdStartFails,
        )
        monkeypatch.setattr(store_module, "mp_context", lambda: failing)
        manager = _manager(n_shards=4)
        with pytest.raises(OSError, match="no more processes"):
            manager.start()
        assert manager.hosts == []
        del manager
        assert _leftovers() == self.baseline


# -- (vi) the spawn start method --------------------------------------------


def test_spawned_workers_take_the_pipe_and_the_watermark(monkeypatch):
    # macOS and Windows have no fork: the Connection and the shared
    # watermark reach the worker pickled through Process(args=...).
    monkeypatch.setattr(
        store_module,
        "mp_context",
        lambda: multiprocessing.get_context("spawn"),
    )
    with _manager(n_replicas=1, lookup_deadline_s=30.0) as manager:
        first = manager.lookup(np.arange(N_NODES))
        assert np.array_equal(first.rows, manager.table)
        manager.apply_update(np.array([2, 40]), np.full((2, DIM), 3.0))
        for host in manager.hosts:
            for replica in (0, 1):
                _, version = host.lookup(
                    np.array([host.row_start]), replica=replica
                )
                assert version == 1
        second = manager.lookup(np.arange(N_NODES))
        assert second.stale_rows == 0
        assert np.array_equal(second.rows, manager.table)


# -- (vii) the wire ---------------------------------------------------------


class TestFrames:
    @pytest.mark.parametrize("n_ids", [0, 1, 16, 256, 40_000])
    def test_lookup_round_trip(self, n_ids):
        with _manager(lookup_deadline_s=30.0) as manager:
            host = manager.hosts[1]
            ids = np.random.default_rng(n_ids).integers(
                host.row_start, host.row_end, n_ids
            )
            # A written row and a non-zero version must both cross.
            manager.apply_update(np.array([host.row_start]), np.ones((1, DIM)))
            rows, version = host.lookup(ids)
            assert rows.shape == (n_ids, DIM)
            assert np.array_equal(rows, manager.table[ids])
            assert version == manager.version
        if n_ids == 40_000:
            assert rows.nbytes > 64 * 1024  # more than one pipe buffer

    def test_error_ack_text_survives(self):
        with _manager(lookup_deadline_s=30.0) as manager:
            host = manager.hosts[0]
            beyond = host.n_rows + 1000
            with pytest.raises(ShardCrashError) as raised:
                host.lookup(np.array([host.row_start + beyond]))
            assert raised.value.detail.startswith(
                f"IndexError: index {beyond} is out of bounds"
            )
            rows, _ = host.lookup(np.array([host.row_start]))  # still serving
            assert np.array_equal(rows, manager.table[[host.row_start]])

    def test_hang_seconds_survive(self):
        with _manager(lookup_deadline_s=30.0) as manager:
            host = manager.hosts[0]
            started = time.monotonic()
            host.inject_hang(0.35)
            host.lookup(np.array([host.row_start]))
            assert 0.35 <= time.monotonic() - started < 2.0


def test_host_side_pickles_nothing(monkeypatch):
    """Lookups, updates and every control frame go unpickled."""
    calls = []

    def spy(name):
        real = getattr(ForkingPickler, name)

        def record(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return record

    with _manager(n_replicas=1, lookup_deadline_s=5.0) as manager:
        # The workers are forked already: the spies are the host's alone.
        monkeypatch.setattr(ForkingPickler, "dumps", spy("dumps"))
        monkeypatch.setattr(ForkingPickler, "loads", spy("loads"))
        host = manager.hosts[0]
        host.lookup(np.array([0, 1]))
        manager.apply_update(np.array([2]), np.ones((1, DIM)))
        host.inject_mute()
        host.inject_hang(0.3)
        with pytest.raises(ShardTimeoutError):
            host.lookup(np.array([3]), deadline_s=0.05)
        host.inject_crash()
        result = manager.lookup(np.arange(N_NODES))
        assert result.statuses[0] == STATUS_REPLICA
        assert np.array_equal(result.rows, manager.table)
    assert calls == []


def test_host_rows_are_read_only_and_manager_rows_are_the_callers():
    with _manager() as manager:
        rows, _ = manager.hosts[0].lookup(np.array([0, 1]))
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 1.0
        result = manager.lookup(np.arange(N_NODES))
        assert result.rows.flags.writeable and result.rows.flags.owndata
        result.rows[:] = 0.0
        assert np.array_equal(
            manager.lookup(np.arange(N_NODES)).rows, manager.table
        )
