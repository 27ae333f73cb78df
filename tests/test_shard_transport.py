"""Tests for the shard transport: a shared-memory mailbox and one duplex
pipe per worker, the version watermark in shared memory,
send-all-then-receive scatter, spin-then-park waits.

Everything but the mailbox tests goes through public ``ShardHost`` /
``EmbeddingShardManager`` calls; those also read a worker's parked word
and remove the host's doorbell, the two seams of parking.  What is
pinned here is the behaviour the transport owes the rest of the store:
a dead worker reads as a crash at once (EOF, not the deadline), a hung
one as a timeout whose late reply is dropped, shards gather side by
side, no request size deadlocks either end, updates cost the workers
nothing, nothing — thread, fd, process or segment — outlives
``close()`` on any path, nor a coordinator that dies without it, every
frame is binary and nothing on the host side pickles or unpickles, a
spinning end keeps every one of those promises, a parked one is woken
by its doorbell, and the host reads no frame but a one-byte ``WAKE``.
"""

import contextlib
import gc
import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import types
from multiprocessing.connection import Connection
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro.formats.csdb import unlink_segment
from repro.obs.metrics import MetricsRegistry
from repro.parallel import shutdown_shared_executors, shutdown_threads_executors
from repro.shard import (
    STATUS_FRESH,
    STATUS_REPLICA,
    STATUS_STALE,
    EmbeddingShardManager,
    ShardCrashError,
    ShardHost,
    ShardPolicy,
    ShardSupervisor,
    ShardTimeoutError,
)
from repro.shard import store as store_module
from repro.shard.transport import (
    _POLL_S,
    _WAKE,
    _WORKER_PARKED,
    HEARTBEAT_INTERVAL_S,
    MAILBOX_IDS,
    SPIN_S,
    _ShardWorker,
    spin_window,
    usable_cpus,
)

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


# Each scenario leaves ``names``: the segments its coordinator made
# (a row segment per shard and a mailbox per worker).
_ORPHANS = {
    "host": (2, """
from repro.shard import ShardHost, ShardPolicy
host = ShardHost(0, np.ones((64, 4)), 0, ShardPolicy(n_shards=1))
host.start()
host.lookup(np.arange(4))
names = [host.spec.name, host.workers[0].box_name]
"""),
    # Two shards: each worker is forked after its sibling's pipe exists,
    # so only a pipe end closed after fork lets the coordinator's death
    # reach every worker as EOF.
    "manager": (6, """
from repro.shard import EmbeddingShardManager, ShardPolicy
table = np.random.default_rng(5).standard_normal((64, 4))
manager = EmbeddingShardManager(
    table, policy=ShardPolicy(n_shards=2, n_replicas=1)
)
manager.start()
assert manager.lookup(np.arange(64)).stale_rows == 0
names = [h.spec.name for h in manager.hosts] + [
    w.box_name for h in manager.hosts for w in h.workers
]
"""),
}


def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("scenario", sorted(_ORPHANS))
def test_a_coordinator_that_dies_unclosed_leaks_no_segment(tmp_path, scenario):
    # No close(): the workers read EOF and exit, and the resource
    # tracker they share with the coordinator unlinks what the
    # coordinator registered — unless an attach dropped the name.
    # Nothing of the coordinator's process group may outlive it either.
    n_names, body = _ORPHANS[scenario]
    program = (
        "import os\nimport numpy as np\n" + body
        + "print(*names, flush=True)\nos._exit(1)\n"
    )
    out, err = tmp_path / "out", tmp_path / "err"
    with out.open("w") as stdout, err.open("w") as stderr:
        coordinator = subprocess.Popen(
            [sys.executable, "-c", program],
            stdout=stdout,
            stderr=stderr,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            start_new_session=True,  # its workers share its group
        )
    names = []
    try:
        assert coordinator.wait(timeout=60) == 1, err.read_text()
        names = out.read_text().split()
        assert len(names) == n_names, err.read_text()
        deadline = time.monotonic() + 10.0
        while True:
            left = [n for n in names if os.path.exists(f"/dev/shm/{n}")]
            alive = _group_alive(coordinator.pid)
            if not (left or alive):
                break
            assert time.monotonic() < deadline, (
                f"outlived the run: segments {left}, process group: {alive}"
            )
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(coordinator.pid, signal.SIGKILL)
        for name in names:
            unlink_segment(name)


# -- (vi) the spawn start method --------------------------------------------


def test_spawned_workers_take_the_pipe_and_the_watermark(monkeypatch):
    # macOS and Windows have no fork: the Connection, the shared
    # watermark, the spin window and the mailbox's name (its heartbeat
    # and error text with it) reach the worker pickled through
    # Process(args=...).  The window is forced on, whatever the CPUs.
    monkeypatch.setattr(
        store_module,
        "mp_context",
        lambda: multiprocessing.get_context("spawn"),
    )
    monkeypatch.setattr(store_module, "spin_window", lambda *_: SPIN_S)
    with _manager(n_replicas=1, lookup_deadline_s=30.0) as manager:
        assert all(
            worker.spin_s == SPIN_S
            for host in manager.hosts
            for worker in host.workers
        )
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


# -- (vii) spin, then block -------------------------------------------------


@contextlib.contextmanager
def _spinning_host(spin_s, lookup_deadline_s=30.0):
    """One started shard whose worker and waits spin ``spin_s``."""
    table = np.random.default_rng(5).standard_normal((N_NODES, DIM))
    host = ShardHost(
        0,
        table,
        0,
        ShardPolicy(n_shards=1, lookup_deadline_s=lookup_deadline_s),
        spin_s=spin_s,
    )
    try:
        host.start()
        yield host, table
    finally:
        host.close()


class TestSpin:
    @pytest.mark.parametrize(
        ("n_shards", "n_cpus", "spins"),
        [(1, 1, False), (2, 2, False), (1, 2, True), (4, 5, True)],
    )
    def test_spins_only_with_a_cpu_per_spinner(self, n_shards, n_cpus, spins):
        assert spin_window(n_shards, n_cpus) == (SPIN_S if spins else 0.0)

    @pytest.mark.parametrize(
        ("files", "n_cpus"),
        [
            ({}, None),
            ({"cpu.max": "max 100000\n"}, None),
            ({"cpu.max": "150000 100000\n"}, 1),
            ({"cpu.max": "50000 100000\n"}, 0),
            ({"cpu/cpu.cfs_quota_us": "-1\n",
              "cpu/cpu.cfs_period_us": "100000\n"}, None),
            ({"cpu/cpu.cfs_quota_us": "100000\n",
              "cpu/cpu.cfs_period_us": "100000\n"}, 1),
        ],
    )
    def test_a_cpu_quota_caps_the_affinity_mask(self, tmp_path, files, n_cpus):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        mask = len(os.sched_getaffinity(0))
        expected = mask if n_cpus is None else min(mask, n_cpus)
        assert usable_cpus(str(tmp_path)) == expected

    def test_idle_replicas_do_not_count(self, monkeypatch):
        # One shard plus a replica on two CPUs spins: the replica only
        # answers hedges, so it never spins beside its primary.
        monkeypatch.setattr(store_module, "usable_cpus", lambda: 2)
        with _manager(n_shards=1, n_replicas=1) as manager:
            assert all(
                worker.spin_s == SPIN_S for worker in manager.hosts[0].workers
            )

    def test_a_split_counts_the_table_it_builds_for(self, monkeypatch):
        # Two shards on three CPUs spin; the split's hosts serve a table
        # of three shards, so they block.
        monkeypatch.setattr(store_module, "usable_cpus", lambda: 3)
        with _manager() as manager:
            assert [host.spin_s for host in manager.hosts] == [SPIN_S] * 2
            manager.begin_split(0)
            assert [host.spin_s for host in manager._warming] == [0.0] * 2

    def test_worker_killed_in_its_spin_window_is_a_crash(self):
        # A 5 s window: the kill lands while the worker spins.
        with _spinning_host(5.0) as (host, table):
            rows, _ = host.lookup(np.array([3]))
            assert np.array_equal(rows, table[[3]])
            os.kill(host.workers[0].process.pid, signal.SIGKILL)
            started = time.monotonic()
            with pytest.raises(ShardCrashError, match="dead|died mid-call"):
                host.lookup(np.array([3]))
            assert time.monotonic() - started < 2.0

    def test_host_spin_ends_at_eof(self):
        # The host spins up to 5 s on a hung worker; its death must end
        # the spin as EOF, not wait the window (or the 30 s deadline).
        with _spinning_host(5.0) as (host, _):
            host.inject_hang(20.0)
            pid = host.workers[0].process.pid
            killer = threading.Timer(0.1, os.kill, (pid, signal.SIGKILL))
            killer.start()
            started = time.monotonic()
            try:
                with pytest.raises(ShardCrashError, match="died mid-call"):
                    host.lookup(np.array([0]))
            finally:
                killer.join(timeout=5.0)
            assert time.monotonic() - started < 2.0

    def test_hang_past_the_deadline_times_out_at_it(self):
        with _spinning_host(SPIN_S) as (host, table):
            host.lookup(np.array([0]))  # the worker now spins
            host.inject_hang(1.0)
            started = time.monotonic()
            with pytest.raises(ShardTimeoutError):
                host.lookup(np.array([1]), deadline_s=0.2)
            assert 0.2 <= time.monotonic() - started < 0.6

    def test_deadline_shorter_than_the_window_is_honoured(self):
        with _spinning_host(0.5) as (host, _):
            host.inject_hang(1.0)
            started = time.monotonic()
            with pytest.raises(ShardTimeoutError):
                host.lookup(np.array([1]), deadline_s=0.02)
            assert 0.02 <= time.monotonic() - started < 0.25
        with _spinning_host(SPIN_S) as (host, _):
            host.inject_hang(1.0)
            started = time.monotonic()
            with pytest.raises(ShardTimeoutError):
                host.lookup(np.array([1]), deadline_s=SPIN_S / 4)
            assert time.monotonic() - started < 0.25

    def test_muted_worker_stops_beating_and_keeps_serving(self):
        with _spinning_host(SPIN_S) as (host, table):
            host.inject_mute()
            host.lookup(np.array([0]))  # acked after the MUTE was read
            beats = host.heartbeat_value()
            for node in range(1, 20):
                rows, _ = host.lookup(np.array([node]))
                assert np.array_equal(rows, table[[node]])
            time.sleep(0.15)  # seven idle beat intervals
            assert host.heartbeat_value() == beats


# -- (viii) the wire --------------------------------------------------------


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


def test_a_lookup_asks_no_liveness_and_a_sweep_asks_once_a_host(
    monkeypatch,
):
    calls = []
    real = multiprocessing.process.BaseProcess.is_alive

    def spy(process):
        calls.append(process.pid)
        return real(process)

    with _manager(n_shards=2) as manager:
        supervisor = ShardSupervisor(manager)
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "is_alive", spy
        )
        for _ in range(3):
            manager.lookup(np.arange(N_NODES))
        assert calls == []
        supervisor.check()
        assert sorted(calls) == sorted(
            host.workers[0].process.pid for host in manager.hosts
        )


@pytest.mark.parametrize(
    ("spin_s", "parked"),
    [(0.0, True), (SPIN_S, True), (5.0, False)],
    ids=["park", "spin-then-park", "spinning"],
)
def test_a_worker_killed_between_lookups_fails_the_next(
    monkeypatch, spin_s, parked
):
    # A parked worker's death is EPIPE on its doorbell, a spinning
    # one's EOF: either way one failure in the next lookup, hedged.
    monkeypatch.setattr(store_module, "spin_window", lambda *_: spin_s)
    failures = []
    with _manager(n_shards=1) as manager:
        manager.on_failure = lambda *args: failures.append(args)
        manager.lookup(np.arange(N_NODES))
        worker = manager.hosts[0].workers[0]
        if parked:
            _parked(manager.hosts[0])
        assert bool(worker.box.words[_WORKER_PARKED]) == parked
        os.kill(worker.process.pid, signal.SIGKILL)
        worker.process.join(timeout=5.0)
        assert worker.process.exitcode == -signal.SIGKILL
        result = manager.lookup(np.arange(N_NODES))
        assert result.statuses == {0: STATUS_STALE}
        assert np.array_equal(result.rows, manager.table)
        assert [(shard, type(exc)) for shard, exc in failures] == [
            (0, ShardCrashError)
        ]
        assert manager.metrics.value(
            "shard.failures", shard="0", kind="ShardCrashError"
        ) == 1


# -- (ix) the mailbox -------------------------------------------------------


def _parked(host, timeout_s=5.0):
    """Wait until the primary has parked on its pipe."""
    words = host.workers[0].box.words
    deadline = time.monotonic() + timeout_s
    while not words[_WORKER_PARKED]:
        assert time.monotonic() < deadline, "the worker never parked"
        time.sleep(1e-3)


def _beats_past(host, beats, timeout_s=2.0):
    """Wait until the primary's heartbeat counter moves past ``beats``.

    A beat is due every ``HEARTBEAT_INTERVAL_S``; a fixed sleep of a few
    intervals misses it when a loaded box schedules the worker late.
    """
    deadline = time.monotonic() + timeout_s
    while host.heartbeat_value() <= beats:
        assert time.monotonic() < deadline, "the worker never beat"
        time.sleep(HEARTBEAT_INTERVAL_S / 4)


class TestMailbox:
    @pytest.mark.parametrize(
        "n_ids",
        [0, MAILBOX_IDS - 1, MAILBOX_IDS, MAILBOX_IDS + 1, 2 * MAILBOX_IDS + 1],
    )
    def test_transactions_round_trip_exactly(self, n_ids):
        with _manager(lookup_deadline_s=30.0) as manager:
            host = manager.hosts[1]
            # Far more ids than rows: every request repeats ids.
            ids = np.random.default_rng(n_ids).integers(
                host.row_start, host.row_end, n_ids
            )
            manager.apply_update(np.array([host.row_start]), np.ones((1, DIM)))
            rows, version = host.lookup(ids)
            assert rows.shape == (n_ids, DIM)
            assert not rows.flags.writeable
            assert np.array_equal(rows, manager.table[ids])
            assert version == manager.version
            result = manager.lookup(np.concatenate([ids, ids[::-1]]))
            assert result.stale_rows == 0
            assert np.array_equal(
                result.rows, manager.table[np.concatenate([ids, ids[::-1]])]
            )

    def test_parked_worker_answers_its_doorbell(self):
        with _spinning_host(SPIN_S) as (host, table):
            elapsed = []
            for node in range(7):
                _parked(host)  # long past the spin window
                started = time.monotonic()
                rows, _ = host.lookup(np.array([node]))
                elapsed.append(time.monotonic() - started)
                assert np.array_equal(rows, table[[node]])
            # A missed doorbell waits for the next heartbeat-paced wake,
            # up to _POLL_S; a rung one does not.
            assert sorted(elapsed)[3] < _POLL_S / 4

    def test_lost_doorbell_costs_one_idle_interval(self, monkeypatch):
        monkeypatch.setattr(_ShardWorker, "_ring", lambda self, sent: None)
        with _spinning_host(0.0) as (host, table):
            for node in range(5):
                _parked(host)
                started = time.monotonic()
                rows, _ = host.lookup(np.array([node]))
                assert time.monotonic() - started < HEARTBEAT_INTERVAL_S + 0.2
                assert np.array_equal(rows, table[[node]])

    def test_error_in_a_later_transaction_keeps_its_text(self):
        with _manager(lookup_deadline_s=30.0) as manager:
            host = manager.hosts[0]
            beyond = host.n_rows + 1000
            ids = np.full(MAILBOX_IDS + 1, host.row_start)
            ids[-1] = host.row_start + beyond
            with pytest.raises(ShardCrashError) as raised:
                host.lookup(ids)
            assert raised.value.detail.startswith(
                f"IndexError: index {beyond} is out of bounds"
            )
            rows, _ = host.lookup(ids[:-1])  # still serving
            assert np.array_equal(rows, manager.table[ids[:-1]])

    def test_every_frame_the_host_reads_is_a_one_byte_wake(
        self, monkeypatch
    ):
        # Replies, their errors and liveness all live in the mailbox: a
        # blocking host reads nothing off its pipe but WAKE frames.
        frames = []
        real = Connection.recv_bytes

        def spy(conn, *args):
            frames.append(real(conn, *args))
            return frames[-1]

        with _spinning_host(0.0) as (host, table):
            # The worker is forked already: the spy is the host's alone.
            monkeypatch.setattr(Connection, "recv_bytes", spy)
            rows, _ = host.lookup(np.array([1, 2]))
            assert np.array_equal(rows, table[[1, 2]])
            with pytest.raises(ShardCrashError, match="IndexError"):
                host.lookup(np.array([N_NODES + 1000]))
            ids = np.full(MAILBOX_IDS + 1, 3)
            ids[-1] = N_NODES + 1000
            with pytest.raises(ShardCrashError, match="IndexError"):
                host.lookup(ids)
            _parked(host)
            beats = host.heartbeat_value()
            _beats_past(host, beats)  # a parked worker still beats
            rows, _ = host.lookup(np.array([4]))
            assert np.array_equal(rows, table[[4]])
        assert all(frame == bytes((_WAKE,)) for frame in frames), frames

    def test_late_reply_of_a_timed_out_chunked_call_is_dropped(self):
        with _manager(lookup_deadline_s=0.15) as manager:
            host = manager.hosts[0]
            span = np.arange(host.row_start, host.row_end)
            first = np.resize(span, 2 * MAILBOX_IDS + 1)
            host.inject_hang(0.5)
            with pytest.raises(ShardTimeoutError):
                host.lookup(first)
            with pytest.raises(ShardTimeoutError):
                host.lookup(first[::-1])
            time.sleep(0.5)
            last = np.resize(span[::-1], MAILBOX_IDS + 1)
            rows, _ = host.lookup(last, deadline_s=30.0)
            assert np.array_equal(rows, manager.table[last])


def test_spawned_worker_round_trips_and_leaves_no_segment(monkeypatch):
    monkeypatch.setattr(
        store_module,
        "mp_context",
        lambda: multiprocessing.get_context("spawn"),
    )
    with _manager(n_shards=1, lookup_deadline_s=30.0) as manager:
        ids = np.resize(np.arange(N_NODES), MAILBOX_IDS + 1)
        result = manager.lookup(ids)
        assert np.array_equal(result.rows, manager.table[ids])
    assert glob.glob(f"/dev/shm/shard-{os.getpid()}-*") == []


@pytest.mark.parametrize("spin_s", [0.0, SPIN_S], ids=["park", "spin"])
def test_more_workers_than_cpus_stay_exact(monkeypatch, spin_s):
    # Eight workers (four shards, one replica each) on however few CPUs:
    # lookups that span every shard, replica reads and updates
    # interleave, and every row and version must be the table's.  A
    # reply read before its rows, or a lost doorbell that left a call to
    # its deadline, breaks it.
    monkeypatch.setattr(store_module, "spin_window", lambda *_: spin_s)
    rng = np.random.default_rng(11)
    with _manager(
        n_shards=4, n_replicas=1, lookup_deadline_s=30.0
    ) as manager:
        started = time.monotonic()
        for step in range(150):
            ids = rng.integers(0, N_NODES, int(rng.integers(1, 3 * N_NODES)))
            result = manager.lookup(ids)
            assert result.stale_rows == 0
            assert np.array_equal(result.rows, manager.table[ids])
            host = manager.hosts[step % 4]
            rows, version = host.lookup(
                np.array([host.row_start]), replica=1
            )
            assert version == manager.version
            assert np.array_equal(rows, manager.table[[host.row_start]])
            manager.apply_update(
                rng.integers(0, N_NODES, 3), rng.standard_normal((3, DIM))
            )
        assert time.monotonic() - started < 60.0
