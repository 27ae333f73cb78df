"""Multi-process sharded embedding store with hedged scatter-gather.

The embedding table is partitioned into contiguous node ranges (EaTA
entropy-aware by default, :mod:`repro.shard.ranges`), each owned by a
:class:`ShardHost`: a real OS process serving lookups from a
shared-memory segment, heartbeating through a shared counter, and
journaling its rows into a WAL-style
:class:`~repro.memsim.persistence.StageCheckpointStore` on a simulated
PM persistence domain.

Transport.  A host talks to each of its worker processes over one
duplex pipe (messages: :mod:`repro.shard.process`) and shares two things
with them through memory: the rows (the segment) and the table version
those rows are current to (an 8-byte watermark).  A lookup is one
message out and one ack back, nothing else is acked, and an update sends
nothing at all — it writes rows and watermark in place, and the next ack
reads both.  The host never writes to a worker that still owes an ack
(it receives that ack first), so neither side can block writing a large
message the other is not reading.  A worker is alive while its heartbeat
counter moves and its end of the pipe is open; a dead one reads as EOF
at once.

:class:`EmbeddingShardManager` keeps the authoritative table, routes
lookups through a :class:`~repro.shard.ranges.ShardRoutingTable`, and
scatter-gathers — every shard's slice is sent before the first reply is
awaited, so a lookup costs the slowest shard, not their sum — with a
hedging ladder per shard, walked in shard order::

    primary process -> replica process -> stale checkpoint tier -> miss

Every rung is typed: a dead primary raises
:class:`~repro.shard.errors.ShardCrashError` internally, the checkpoint
tier marks its rows stale (bounded staleness = authoritative version
minus checkpoint version), and only when every rung fails does
:class:`~repro.shard.errors.PartialResultError` escape to the caller —
carrying exactly which node ranges went unserved so the serving ladder
can degrade per shard rather than per table.

Deterministic chaos: :meth:`EmbeddingShardManager.lookup` numbers every
scatter-gather call and offers that sequence number to a
:class:`~repro.faults.FaultInjector`, so a seeded
:meth:`~repro.faults.FaultPlan.random_shard` plan kills, hangs, or mutes
exactly the same shard at exactly the same lookup on every run.

Simulated vs wall time: process death, heartbeats, and deadlines are
*wall-clock* mechanics (they exercise real crash recovery); the cost a
lookup reports (``sim_seconds``) is charged on the simulated cost model
— DRAM random reads for fresh rows, PM random reads plus a hedge
penalty for checkpoint-tier rows — so serve-level SLO math stays in the
paper's device terms.
"""

from __future__ import annotations

import os
import secrets
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.faults import FaultEvent, FaultInjector
from repro.formats.csdb import (
    SharedArraySpec,
    attach_shared_array,
    create_shared_array,
    unlink_segment,
)
from repro.memsim.costmodel import CostModel
from repro.memsim.devices import (
    AccessPattern,
    Locality,
    Operation,
    dram_spec,
    pm_spec,
)
from repro.memsim.persistence import PersistenceDomain, StageCheckpointStore
from repro.obs.metrics import MetricsRegistry
from repro.parallel import mp_context
from repro.shard.errors import (
    CheckpointCorruptionError,
    PartialResultError,
    ShardCrashError,
    ShardTimeoutError,
)
from repro.shard.process import (
    DEFAULT_HEARTBEAT_INTERVAL_S,
    shard_main,
)
from repro.shard.ranges import (
    HashRoutingTable,
    ShardRoutingTable,
    entropy_aware_node_ranges,
    uniform_node_ranges,
)

#: How rows were sourced for one shard of a scatter-gather.
STATUS_FRESH = "fresh"
STATUS_REPLICA = "replica"
STATUS_STALE = "stale"
STATUS_MISSING = "missing"

#: Poll granularity while waiting on a shard ack (fast crash detection).
_POLL_S = 0.02


@dataclass(frozen=True)
class ShardPolicy:
    """Configuration of the sharded store.

    Attributes:
        n_shards: shard (process) count.
        n_replicas: extra lookup processes per shard sharing its
            segment; the first hedge target, and the promotion pool the
            supervisor fails over to on primary death.
        partition: ``"entropy"`` (EaTA cost-proxy quantiles),
            ``"uniform"`` (equal rows), or ``"hash"`` (consistent-hash
            ring; shards own scattered node-id sets).
        beta: EaTA bandwidth-degradation ratio for entropy partitioning.
        lookup_deadline_s: wall-clock deadline of one per-shard call.
            Must sit below injected hang durations for deterministic
            hedging, and far above a healthy roundtrip.
        hedge_enabled: when False, shard failures propagate instead of
            hedging (the unsupervised benchmark arm).
        hedge_sim_penalty_s: simulated seconds charged per hedged shard
            (the abandoned primary read plus coordination).
        heartbeat_interval_s: idle heartbeat period of shard processes.
        checkpoint_interval: background checkpoint cadence in lookups
            (staggered per shard); 0 disables cadence-driven refresh.
        staleness_bound: refresh a shard as soon as
            ``table_version - checkpoint_version`` reaches this bound;
            0 disables the bound trigger.
    """

    n_shards: int = 4
    n_replicas: int = 0
    partition: str = "entropy"
    beta: float = 0.41
    lookup_deadline_s: float = 0.25
    hedge_enabled: bool = True
    hedge_sim_penalty_s: float = 5e-4
    heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S
    checkpoint_interval: int = 0
    staleness_bound: int = 0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.n_replicas < 0:
            raise ValueError(
                f"n_replicas must be >= 0, got {self.n_replicas}"
            )
        if self.partition not in ("entropy", "uniform", "hash"):
            raise ValueError(
                f"partition must be 'entropy', 'uniform' or 'hash',"
                f" got {self.partition!r}"
            )
        if self.lookup_deadline_s <= 0:
            raise ValueError(
                f"lookup_deadline_s must be > 0, got {self.lookup_deadline_s}"
            )
        if self.checkpoint_interval < 0:
            raise ValueError(
                f"checkpoint_interval must be >= 0,"
                f" got {self.checkpoint_interval}"
            )
        if self.staleness_bound < 0:
            raise ValueError(
                f"staleness_bound must be >= 0, got {self.staleness_bound}"
            )

    @property
    def refresh_enabled(self) -> bool:
        """Whether any background-refresh trigger is configured."""
        return self.checkpoint_interval > 0 or self.staleness_bound > 0


@dataclass(frozen=True)
class ShardLookupResult:
    """Outcome of one scatter-gather lookup.

    Attributes:
        rows: gathered embedding rows, request order.
        stale_rows: rows served from a stale source (checkpoint tier or
            a restarted shard that has not caught up).
        stale_ranges: ``(shard_id, row_start, row_end)`` node ranges the
            stale rows came from.
        statuses: per-shard source, ``{shard_id: STATUS_*}``.
        sim_seconds: simulated cost of the gather.
        seq: this lookup's 1-based sequence number (the coordinate
            shard fault plans fire on).
        shard_details: per-shard cost itemization for forensics — one
            ``{shard, status, rows, sim_seconds, hedge_penalty_s,
            stale}`` dict per gathered shard, whose ``sim_seconds``
            sum exactly to :attr:`sim_seconds`.
        refresh_sim_seconds: background-checkpointer seconds billed
            during this lookup's refresh tick.  Off the request clock
            by design; forensics records it as overlap, not latency.
    """

    rows: np.ndarray
    stale_rows: int
    stale_ranges: tuple[tuple[int, int, int], ...]
    statuses: dict[int, str]
    sim_seconds: float
    seq: int
    shard_details: tuple[dict, ...] = ()
    refresh_sim_seconds: float = 0.0


class _ShardWorker:
    """Owner-side handle of one shard process (primary or replica).

    ``row_start`` is the worker's index base: an int offset for
    contiguous ranges, or the shard's sorted owned-id array for
    consistent-hash ownership (the process maps via searchsorted).

    ``next_req`` is the id of the last lookup sent and ``acked`` the id
    of the last ack received; they differ only while a call is in
    flight or after one timed out, and the difference is what the
    worker still owes (see :meth:`ShardHost.send_lookup`).
    """

    __slots__ = ("process", "conn", "heartbeat", "next_req", "acked")

    def __init__(self, ctx, spec, shard_id, row_start, watermark, interval_s):
        self.conn, child_conn = ctx.Pipe()
        self.heartbeat = ctx.Value("Q", 0, lock=True)
        self.next_req = 0
        self.acked = 0
        self.process = ctx.Process(
            target=shard_main,
            args=(
                shard_id,
                spec,
                row_start,
                child_conn,
                watermark,
                self.heartbeat,
                interval_s,
            ),
            daemon=True,
        )
        try:
            self.process.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            # The child holds the only copy of its end from here on, so
            # its death — however it dies — reads as EOF on ours.
            child_conn.close()

    def post(self, message) -> None:
        """Send an unacked control message; a dead worker ignores it."""
        if self.process.is_alive():
            try:
                self.conn.send(message)
            except OSError:
                pass  # died between the check and the write

    def stop(self, graceful: bool = True, timeout: float = 2.0) -> None:
        """End the process and close the pipe.

        ``graceful`` asks first (the clean-shutdown sentinel) and waits
        ``timeout``; a worker that is dead, hung or being replaced is
        terminated.
        """
        if graceful:
            self.post(None)
            self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout)
        self.conn.close()


class _SentLookup(NamedTuple):
    """The send half of one lookup, handed to the receive half."""

    worker: _ShardWorker
    replica: int
    req_id: int
    deadline_s: float
    deadline_at: float


class ShardHost:
    """Owner side of one shard: segment, processes, WAL checkpoints.

    The host keeps the shard's rows in a named shared-memory segment
    served by a primary process (plus optional replicas).  Durability is
    modelled honestly: a restart never trusts the segment — it rebuilds
    the rows from the last WAL checkpoint, so anything written after
    that checkpoint comes back *stale* until :meth:`catch_up` replays it
    from the manager's authoritative copy.
    """

    def __init__(
        self,
        shard_id: int,
        rows: np.ndarray,
        row_start: int,
        policy: ShardPolicy,
        ctx=None,
        domain: PersistenceDomain | None = None,
        node_ids: np.ndarray | None = None,
    ) -> None:
        self.shard_id = shard_id
        if node_ids is not None:
            self.node_ids: np.ndarray | None = np.sort(
                np.asarray(node_ids, dtype=np.int64)
            )
            if len(self.node_ids) != len(rows):
                raise ValueError(
                    f"{len(self.node_ids)} node ids for {len(rows)} rows"
                )
            self.row_start = int(self.node_ids[0]) if len(self.node_ids) else 0
            self.row_end = (
                int(self.node_ids[-1]) + 1 if len(self.node_ids) else 0
            )
        else:
            self.node_ids = None
            self.row_start = row_start
            self.row_end = row_start + len(rows)
        self.policy = policy
        self.checkpoint_version: int | None = None
        self.generation = 0
        self.restarts = 0
        self.promotions = 0
        self.quarantined = 0
        self.abandoned = False
        self.recovery_sim_seconds = 0.0
        #: Called with (shard_id, sequence, reason) when a damaged
        #: checkpoint record is quarantined (set by the manager).
        self.on_quarantine: Callable[[int, int, str], None] | None = None
        self._ctx = ctx if ctx is not None else mp_context()
        #: The version watermark: written here, read by every worker of
        #: this shard when it acks.  Lock-free — one writer, and an
        #: aligned 8-byte store is not torn.
        self._watermark = self._ctx.RawValue("q", 0)
        token = secrets.token_hex(4)
        self._name = f"shard-{os.getpid()}-{token}-{shard_id}"
        self.spec = create_shared_array(np.asarray(rows, dtype=np.float64), self._name)
        self._view, self._segment = attach_shared_array(self.spec)
        domain = domain if domain is not None else PersistenceDomain(device=pm_spec())
        self.domain = domain
        self.checkpoints = StageCheckpointStore(domain)
        self._workers: list[_ShardWorker] = []
        self._closed = False

    def _index_base(self):
        """What workers use to map global node ids to local slots."""
        return self.node_ids if self.node_ids is not None else self.row_start

    def _local(self, node_ids: np.ndarray) -> np.ndarray:
        """Owner-side global-id → local-slot mapping."""
        ids = np.asarray(node_ids, dtype=np.int64)
        if self.node_ids is None:
            return ids - self.row_start
        return np.searchsorted(self.node_ids, ids)

    @property
    def n_rows(self) -> int:
        return len(self._view)

    @property
    def version(self) -> int:
        """Table version this shard's rows are current to."""
        return self._watermark.value

    @version.setter
    def version(self, value: int) -> None:
        self._watermark.value = value

    # -- lifecycle -------------------------------------------------------

    def start(self, checkpoint: bool = True) -> None:
        """Spawn the primary (+replicas) and cut the genesis checkpoint."""
        if self._workers:
            raise RuntimeError(f"shard {self.shard_id} already started")
        if checkpoint:
            self.checkpoint()
        self._spawn_workers()

    def _spawn_workers(self) -> None:
        self._workers = [
            self._spawn_worker() for _ in range(1 + self.policy.n_replicas)
        ]

    def _spawn_worker(self) -> _ShardWorker:
        return _ShardWorker(
            self._ctx,
            self.spec,
            self.shard_id,
            self._index_base(),
            self._watermark,
            self.policy.heartbeat_interval_s,
        )

    def close(self) -> None:
        """Stop every process and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.stop()
        self._workers = []
        del self._view
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - exported view
            pass
        unlink_segment(self._name)

    def __enter__(self) -> "ShardHost":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- liveness --------------------------------------------------------

    @property
    def workers(self) -> list[_ShardWorker]:
        return self._workers

    def alive(self, replica: int = 0) -> bool:
        """Whether worker ``replica`` (0 = primary) is running."""
        if replica >= len(self._workers):
            return False
        return self._workers[replica].process.is_alive()

    def heartbeat_value(self, replica: int = 0) -> int:
        return int(self._workers[replica].heartbeat.value)

    # -- durability ------------------------------------------------------

    def checkpoint(self, crash: bool = False) -> int:
        """Durably journal the shard's current rows.

        Follows the WAL discipline of
        :class:`~repro.memsim.persistence.StageCheckpointStore`: with
        ``crash=True`` the record is lost
        (:class:`~repro.memsim.persistence.CrashInjected` propagates)
        but every earlier checkpoint stays durable.
        """
        sequence = self.checkpoints.append(
            f"shard-{self.shard_id}",
            {"rows": np.array(self._view, copy=True)},
            {
                "version": self.version,
                "row_start": self.row_start,
                "row_end": self.row_end,
                "n_rows": self.n_rows,
            },
            crash=crash,
        )
        self.checkpoint_version = self.version
        return sequence

    def last_verified_record(self):
        """Newest checkpoint whose CRC verifies, quarantining bad ones.

        Recovery never trusts the simulated PM media: records are
        walked newest-to-oldest, each verified against its commit-time
        checksum; damaged records (``checkpoint_corrupt`` /
        ``checkpoint_torn`` faults) are quarantined — dropped from the
        log and reported via :attr:`on_quarantine` — instead of being
        served or crashing the shard.

        Raises:
            CheckpointCorruptionError: every record failed verification.
            ShardCrashError: the log is empty.
        """
        records = self.checkpoints.records
        if not records:
            raise ShardCrashError(self.shard_id, "no checkpoint to restore")
        for record in reversed(records):
            if self.checkpoints.verify(record):
                if self.checkpoint_version is not None:
                    # Walk-back may land on an older checkpoint: the
                    # staleness bound must report the truth.
                    self.checkpoint_version = int(record.meta["version"])
                return record
            self.checkpoints.quarantine(record)
            self.quarantined += 1
            if self.on_quarantine is not None:
                self.on_quarantine(
                    self.shard_id, record.sequence, "crc_mismatch"
                )
        raise CheckpointCorruptionError(self.shard_id, self.quarantined)

    def recover_rows(self, node_ids: np.ndarray) -> tuple[np.ndarray, int]:
        """Stale-tier read from the newest *verified* checkpoint.

        Works with the shard's processes dead — this is the hedge of
        last resort.  Returns the rows and the checkpoint's version.
        """
        record = self.last_verified_record()
        ids = self._local(node_ids)
        return (
            np.array(record.arrays["rows"][ids], copy=True),
            int(record.meta["version"]),
        )

    # -- mutation --------------------------------------------------------

    def write_rows(self, node_ids: np.ndarray, rows: np.ndarray) -> None:
        """Write-through update of live rows (not yet durable).

        Does not move :attr:`version`: whether these rows bring the
        shard up to the table version depends on whether it was current
        before them, which only the manager knows.
        """
        self._view[self._local(node_ids)] = rows

    # -- recovery --------------------------------------------------------

    def _bill_recovery_read(self, nbytes: float) -> None:
        """Charge a PM sequential read to the recovery sim-clock bill."""
        self.recovery_sim_seconds += self.domain.cost_model.access_time(
            self.domain.device,
            Operation.READ,
            AccessPattern.SEQUENTIAL,
            Locality.LOCAL,
            float(nbytes),
        )

    def restart(self) -> int:
        """Replace dead/hung processes, restoring rows from the WAL.

        Process memory (and, as modelled, the segment contents) died
        with the shard, so the segment is rebuilt from the newest
        *verified* checkpoint — the shard comes back at that record's
        version, and the staleness it reopens with is returned
        (``lost_versions = version_before_crash - checkpoint_version``).
        The full WAL replay (a PM sequential read of the shard's rows)
        is billed to :attr:`recovery_sim_seconds` — the downtime the
        promotion path avoids.
        """
        for worker in self._workers:
            worker.stop(graceful=False)
        record = self.last_verified_record()
        lost = self.version - int(record.meta["version"])
        self._view[:] = record.arrays["rows"]
        self._bill_recovery_read(record.arrays["rows"].nbytes)
        self.version = int(record.meta["version"])
        self.checkpoint_version = self.version
        self.generation += 1
        self.restarts += 1
        self._spawn_workers()
        return lost

    def has_fresh_replica(self) -> bool:
        """Whether a live replica could take over without WAL replay.

        Replicas share the primary's segment and version watermark, so
        a live replica is exactly as fresh as the owner's view — the
        promotion precondition.
        """
        return any(
            worker.process.is_alive() for worker in self._workers[1:]
        )

    def promote_replica(self) -> int:
        """Fail over to a live replica without touching the WAL.

        The first live replica becomes the primary; the dead (or stuck)
        old primary is retired and a fresh replacement replica is
        spawned, restoring the replica budget.  No rows are lost
        (``lost_versions == 0`` by construction: the replica serves the
        same shared segment at the same version) and no checkpoint is
        read — only a coordination penalty is billed to
        :attr:`recovery_sim_seconds`, which is what makes failover
        sub-checkpoint-interval.

        Returns the worker index that was promoted.

        Raises:
            ShardCrashError: no live replica to promote.
        """
        candidate = next(
            (
                idx
                for idx in range(1, len(self._workers))
                if self._workers[idx].process.is_alive()
            ),
            None,
        )
        if candidate is None:
            raise ShardCrashError(self.shard_id, "no live replica to promote")
        replica = self._workers[candidate]
        retired = [
            worker
            for idx, worker in enumerate(self._workers)
            if idx != candidate
        ]
        standbys = [w for w in retired[1:] if w.process.is_alive()]
        for worker in retired:
            if worker not in standbys:
                worker.stop(graceful=False)
        self._workers = [replica, *standbys, self._spawn_worker()]
        self.recovery_sim_seconds += self.policy.hedge_sim_penalty_s
        self.generation += 1
        self.promotions += 1
        return candidate

    def catch_up(self, rows: np.ndarray, version: int) -> None:
        """Replay the authoritative rows and re-checkpoint.

        After this the shard is bit-identical to a fresh load of the
        manager's table at ``version``.
        """
        self._view[:] = rows
        self.version = version
        self.checkpoint()

    # -- fault injection -------------------------------------------------

    def inject_crash(self) -> None:
        """Kill the primary deterministically (joined before return)."""
        worker = self._workers[0]
        worker.post(("crash",))
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - slow exit
            worker.process.terminate()
            worker.process.join(timeout=5.0)

    def inject_hang(self, seconds: float) -> None:
        """Post a sleep to the primary (next lookup hits the deadline)."""
        self._workers[0].post(("hang", float(seconds)))

    def inject_mute(self) -> None:
        """Stop the primary's heartbeat while it keeps serving."""
        self._workers[0].post(("mute",))

    def inject_checkpoint_fault(self, kind: str) -> bool:
        """Damage the newest WAL record (``checkpoint_corrupt``/``_torn``).

        Models the simulated PM device returning bad data: the payload
        is mutated while the commit-time CRC is left in place, so
        verification fails and recovery must walk back.  Returns whether
        a record was actually damaged.
        """
        mode = "corrupt" if kind == "checkpoint_corrupt" else "torn"
        return self.checkpoints.damage_last(mode) is not None

    # -- lookups ---------------------------------------------------------

    def send_lookup(
        self,
        node_ids: np.ndarray,
        deadline_s: float | None = None,
        replica: int = 0,
    ) -> _SentLookup:
        """Send half of a lookup: put the request on worker ``replica``.

        The deadline of the call starts here.  A worker that still owes
        the ack of an earlier, timed-out call is busy with that call
        (or about to write its reply) and is not reading its pipe, so
        nothing is written to it until those acks have been received
        and dropped — the host only ever writes to a worker that is
        reading, and a worker only ever writes to a host that will
        read, whatever the sizes of the request and the reply.  (A
        request larger than the pipe's buffer, sent to a worker that is
        hung, blocks here until the worker reads or dies; the deadline
        is judged afterwards.)

        Raises:
            ShardCrashError: the worker is dead or its pipe is closed.
            ShardTimeoutError: the owed acks did not arrive in time.
        """
        deadline_s = (
            self.policy.lookup_deadline_s if deadline_s is None else deadline_s
        )
        if replica >= len(self._workers):
            raise ShardCrashError(self.shard_id, f"no worker {replica}")
        worker = self._workers[replica]
        if not worker.process.is_alive():
            raise ShardCrashError(
                self.shard_id, f"worker {replica} dead (exit {worker.process.exitcode})"
            )
        last = _SentLookup(
            worker,
            replica,
            worker.next_req,
            deadline_s,
            time.monotonic() + deadline_s,
        )
        if worker.acked != last.req_id:
            self._await_ack(last)  # owed acks, dropped
        sent = last._replace(req_id=last.req_id + 1)
        try:
            worker.conn.send(
                ("lookup", sent.req_id, np.asarray(node_ids, dtype=np.int64))
            )
        except OSError:
            raise self._died(sent) from None
        worker.next_req = sent.req_id
        return sent

    def finish_lookup(self, sent: _SentLookup) -> tuple[np.ndarray, int]:
        """Receive half of a lookup: the rows and the version they carry.

        Raises:
            ShardCrashError: the worker died (EOF) or reported an error.
            ShardTimeoutError: no ack within the call's deadline; an ack
                that has already arrived is never a timeout.
        """
        status, payload, version = self._await_ack(sent)
        if status != "ok":
            raise ShardCrashError(self.shard_id, str(payload))
        return payload, int(version)

    def lookup(
        self,
        node_ids: np.ndarray,
        deadline_s: float | None = None,
        replica: int = 0,
    ) -> tuple[np.ndarray, int]:
        """One live lookup against worker ``replica`` (send + receive).

        Raises:
            ShardCrashError: the worker is (or dies) unresponsive.
            ShardTimeoutError: no ack within ``deadline_s``.
        """
        return self.finish_lookup(
            self.send_lookup(node_ids, deadline_s, replica)
        )

    def _died(self, sent: _SentLookup) -> ShardCrashError:
        process = sent.worker.process
        process.join(timeout=_POLL_S)  # EOF can beat the exit status
        return ShardCrashError(
            self.shard_id,
            f"worker {sent.replica} died mid-call (exit {process.exitcode})",
        )

    def _await_ack(self, sent: _SentLookup) -> tuple[str, Any, int]:
        """Receive acks up to ``sent.req_id``'s; earlier ones are stale
        (their calls timed out) and dropped."""
        worker = sent.worker
        while True:
            remaining = sent.deadline_at - time.monotonic()
            try:
                if worker.conn.poll(max(0.0, min(_POLL_S, remaining))):
                    status, req_id, payload, version = worker.conn.recv()
                    worker.acked = req_id
                    if req_id == sent.req_id:
                        return status, payload, version
                    continue
            except (EOFError, OSError):
                raise self._died(sent) from None
            if remaining <= 0:
                raise ShardTimeoutError(self.shard_id, sent.deadline_s)
            if not worker.process.is_alive():
                raise self._died(sent)


class EmbeddingShardManager:
    """Scatter-gather front of the sharded store.

    Owns the authoritative embedding table, the routing table, and one
    :class:`ShardHost` per range.  ``lookup`` is the hot path:
    fault-plan injection, per-shard deadlines, the hedging ladder, and
    staleness accounting all live here.

    Args:
        embeddings: the authoritative ``(n_nodes, dim)`` table.
        degrees: per-node degrees for entropy-aware partitioning
            (``None`` falls back to uniform ranges).
        policy: store configuration.
        faults: deterministic shard-fault plan injector.
        metrics: registry for ``shard.*`` counters (own one if omitted).
        stream: optional live telemetry stream; shard incidents are
            emitted as ``shard_event`` records.
    """

    def __init__(
        self,
        embeddings: np.ndarray,
        degrees: np.ndarray | None = None,
        policy: ShardPolicy = ShardPolicy(),
        faults: FaultInjector | None = None,
        metrics: MetricsRegistry | None = None,
        stream=None,
        cost_model: CostModel | None = None,
    ) -> None:
        self.table = np.ascontiguousarray(embeddings, dtype=np.float64)
        if self.table.ndim != 2:
            raise ValueError(
                f"embeddings must be 2-D, got shape {self.table.shape}"
            )
        self.policy = policy
        self.faults = faults
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stream = stream
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self._dram = dram_spec()
        self._pm = pm_spec()
        n_nodes = len(self.table)
        self.degrees = (
            np.asarray(degrees, dtype=np.float64)[:n_nodes]
            if degrees is not None
            else None
        )
        if policy.partition == "hash":
            self.routing: ShardRoutingTable | HashRoutingTable = (
                HashRoutingTable(n_nodes=n_nodes, n_shards=policy.n_shards)
            )
        elif policy.partition == "entropy" and self.degrees is not None:
            self.routing = ShardRoutingTable(
                ranges=tuple(
                    entropy_aware_node_ranges(
                        self.degrees, policy.n_shards, beta=policy.beta
                    )
                )
            )
        else:
            self.routing = ShardRoutingTable(
                ranges=tuple(uniform_node_ranges(n_nodes, policy.n_shards))
            )
        self.version = 0
        self.lookup_seq = 0
        self.hosts: list[ShardHost] = []
        self.rows_served: list[int] = [0] * self.routing.n_shards
        self.on_failure: Callable[[int, Exception], None] | None = None
        self.refresher = None
        #: Bumped on every finished reshard (routing-table swap), so
        #: observers (the supervisor's heartbeat map) can invalidate
        #: shard-id-keyed state.
        self.reshard_epoch = 0
        self._migration: dict[str, Any] | None = None
        self._ctx = mp_context()
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def _new_host(
        self,
        shard_id: int,
        row_start: int,
        row_end: int,
        node_ids: np.ndarray | None = None,
    ) -> ShardHost:
        rows = (
            self.table[node_ids]
            if node_ids is not None
            else self.table[row_start:row_end]
        )
        host = ShardHost(
            shard_id,
            rows,
            row_start,
            self.policy,
            ctx=self._ctx,
            node_ids=node_ids,
        )
        host.version = self.version
        host.on_quarantine = self._note_quarantine
        return host

    def _note_quarantine(self, shard_id: int, sequence: int, reason: str) -> None:
        self.metrics.counter(
            "shard.corrupt_checkpoints", shard=str(shard_id)
        ).inc()
        self._emit({"type": "shard_event", "event": "checkpoint_quarantined",
                    "shard": shard_id, "sequence": sequence,
                    "reason": reason})

    def start(self) -> "EmbeddingShardManager":
        """Spawn every shard and cut genesis checkpoints."""
        if self._started:
            return self
        try:
            if isinstance(self.routing, HashRoutingTable):
                for shard_id in range(self.routing.n_shards):
                    members = self.routing.members(shard_id)
                    host = self._new_host(shard_id, 0, 0, node_ids=members)
                    self.hosts.append(host)
                    host.start()
            else:
                for shard_id, (row_start, row_end) in enumerate(
                    self.routing.ranges
                ):
                    host = self._new_host(shard_id, row_start, row_end)
                    self.hosts.append(host)
                    host.start()
        except BaseException:
            self.close()
            raise
        if self.policy.refresh_enabled:
            from repro.shard.refresh import BackgroundCheckpointer

            self.refresher = BackgroundCheckpointer(self)
        self._started = True
        self._emit({"type": "shard_event", "event": "started",
                    "n_shards": self.routing.n_shards,
                    "partition": self.policy.partition,
                    "ranges": self.routing.range_summaries()})
        return self

    def close(self) -> None:
        """Stop every shard process and unlink segments (idempotent)."""
        first: BaseException | None = None
        pending = (
            list(self._migration["hosts"]) if self._migration is not None else []
        )
        self._migration = None
        for host in [*self.hosts, *pending]:
            try:
                host.close()
            except BaseException as exc:  # noqa: BLE001 - best effort
                if first is None:
                    first = exc
        self.hosts = []
        self._started = False
        if first is not None:
            raise first

    def __enter__(self) -> "EmbeddingShardManager":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- telemetry -------------------------------------------------------

    def _emit(self, record: dict[str, Any]) -> None:
        if self.stream is not None:
            self.stream.emit(record)

    # -- mutation --------------------------------------------------------

    def rows_for(self, host: ShardHost) -> np.ndarray:
        """The authoritative table slice a host owns, in host order."""
        if host.node_ids is not None:
            return self.table[host.node_ids]
        return self.table[host.row_start : host.row_end]

    def apply_update(self, node_ids: np.ndarray, rows: np.ndarray) -> int:
        """Update rows in the authoritative table and write through.

        Bumps the table version; the write is live in every shard
        segment but *not yet durable* — rows updated after a shard's
        last checkpoint are exactly what a crash loses.  During an
        online reshard the write is dual-routed: the migrating range's
        old host *and* its replacement hosts both apply it, so the
        atomic table swap loses nothing.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        self.table[node_ids] = rows
        previous = self.version
        self.version += 1
        for shard, (_, ids) in self.routing.split(node_ids).items():
            self.hosts[shard].write_rows(ids, self.table[ids])
        warming = (
            self._migration["hosts"] if self._migration is not None else ()
        )
        for host in warming:
            mask = (
                np.isin(node_ids, host.node_ids)
                if host.node_ids is not None
                else (node_ids >= host.row_start) & (node_ids < host.row_end)
            )
            ids = node_ids[mask]
            if len(ids):
                host.write_rows(ids, self.table[ids])
        for host in (*self.hosts, *warming):
            # Every shard that was current advances to the table
            # version, touched or not — staleness is measured against
            # the whole table.  A shard that was already behind (it
            # reopened from its checkpoint) still misses the updates it
            # lost: it stays behind, and reads as stale, until catch_up.
            if host.version == previous:
                host.version = self.version
        return self.version

    def checkpoint_all(self) -> None:
        """Cut a durable checkpoint on every shard."""
        for host in self.hosts:
            host.checkpoint()

    def catch_up(self, shard_id: int) -> None:
        """Replay authoritative rows into one shard and re-checkpoint."""
        host = self.hosts[shard_id]
        host.catch_up(self.rows_for(host), self.version)
        self._emit({"type": "shard_event", "event": "caught_up",
                    "shard": shard_id, "version": self.version})

    # -- elastic reshard -------------------------------------------------

    @property
    def migrating(self) -> bool:
        """Whether an online split/merge is in flight."""
        return self._migration is not None

    def load_imbalance(self) -> float:
        """Max served-rows share over mean share (1.0 = perfectly even)."""
        served = np.asarray(self.rows_served, dtype=np.float64)
        if served.sum() == 0:
            return 1.0
        mean = served.mean()
        return float(served.max() / mean) if mean > 0 else 1.0

    def _require_range_routing(self, op: str) -> ShardRoutingTable:
        if not isinstance(self.routing, ShardRoutingTable):
            raise ValueError(
                f"online {op} needs contiguous-range routing; the"
                " consistent-hash table rebalances by construction"
            )
        return self.routing

    def _split_point(self, row_start: int, row_end: int) -> int:
        """Degree-mass midpoint of a range (row midpoint without degrees)."""
        if self.degrees is not None and row_end - row_start > 1:
            mass = np.cumsum(self.degrees[row_start:row_end] + 1.0)
            at = row_start + int(np.searchsorted(mass, mass[-1] / 2.0)) + 1
            return min(max(at, row_start + 1), row_end - 1)
        return (row_start + row_end) // 2

    def begin_split(self, shard_id: int, at: int | None = None) -> None:
        """Start migrating one hot shard's range onto two new hosts.

        The protocol is dual-route: until :meth:`finish_migration`
        swaps the routing table, reads keep hitting the old host while
        writes land on *both* the old host and the warming replacements
        — so the swap is atomic and lossless.  ``at`` overrides the
        degree-mass split point.
        """
        routing = self._require_range_routing("split")
        if self._migration is not None:
            raise RuntimeError("a reshard migration is already in flight")
        row_start, row_end = routing.ranges[shard_id]
        if row_end - row_start < 2:
            raise ValueError(
                f"shard {shard_id} range [{row_start}, {row_end}) is too"
                " small to split"
            )
        at = self._split_point(row_start, row_end) if at is None else int(at)
        if not row_start < at < row_end:
            raise ValueError(
                f"split point {at} outside ({row_start}, {row_end})"
            )
        hosts = []
        try:
            for lo, hi in ((row_start, at), (at, row_end)):
                host = self._new_host(-1, lo, hi)
                hosts.append(host)
                host.start()
        except BaseException:
            for host in hosts:
                host.close()
            raise
        self._migration = {
            "kind": "split",
            "old": [shard_id],
            "hosts": hosts,
            "since_seq": self.lookup_seq,
        }
        self._emit({"type": "shard_event", "event": "reshard_begun",
                    "kind": "split", "shard": shard_id,
                    "ranges": [[row_start, at], [at, row_end]],
                    "seq": self.lookup_seq})

    def begin_merge(self, shard_id: int) -> None:
        """Start merging two adjacent cold shards onto one new host.

        Merges ``shard_id`` with ``shard_id + 1`` under the same
        dual-route discipline as :meth:`begin_split`.
        """
        routing = self._require_range_routing("merge")
        if self._migration is not None:
            raise RuntimeError("a reshard migration is already in flight")
        if shard_id + 1 >= routing.n_shards:
            raise ValueError(
                f"shard {shard_id} has no right neighbour to merge with"
            )
        row_start = routing.ranges[shard_id][0]
        row_end = routing.ranges[shard_id + 1][1]
        host = self._new_host(-1, row_start, row_end)
        try:
            host.start()
        except BaseException:
            host.close()
            raise
        self._migration = {
            "kind": "merge",
            "old": [shard_id, shard_id + 1],
            "hosts": [host],
            "since_seq": self.lookup_seq,
        }
        self._emit({"type": "shard_event", "event": "reshard_begun",
                    "kind": "merge", "shard": shard_id,
                    "ranges": [[row_start, row_end]],
                    "seq": self.lookup_seq})

    def migration_ready(self) -> bool:
        """Whether every warming host is live and has heartbeaten."""
        if self._migration is None:
            return False
        return all(
            host.alive() and host.heartbeat_value() > 0
            for host in self._migration["hosts"]
        )

    def maybe_advance_migration(self) -> bool:
        """Finish the in-flight migration once the new hosts are warm."""
        if self._migration is None or not self.migration_ready():
            return False
        self.finish_migration()
        return True

    def finish_migration(self) -> None:
        """Atomically swap the routing table and drain the old hosts.

        The new hosts carried every dual-routed write, so the swap
        changes *where* rows are served from, never their values; the
        drained hosts close after the swap, and served-row accounting is
        re-based onto the new shard ids.
        """
        if self._migration is None:
            raise RuntimeError("no reshard migration in flight")
        migration = self._migration
        routing = self._require_range_routing("reshard")
        old_ids = migration["old"]
        new_hosts = migration["hosts"]
        first_old = old_ids[0]
        ranges = list(routing.ranges)
        ranges[first_old : old_ids[-1] + 1] = [
            (host.row_start, host.row_end) for host in new_hosts
        ]
        drained = self.hosts[first_old : old_ids[-1] + 1]
        hosts = list(self.hosts)
        hosts[first_old : old_ids[-1] + 1] = new_hosts
        served = list(self.rows_served)
        moved = sum(served[i] for i in old_ids)
        served[first_old : old_ids[-1] + 1] = [
            moved // len(new_hosts)
        ] * len(new_hosts)
        # The swap itself: routing, hosts, and accounting move together.
        self.routing = ShardRoutingTable(ranges=tuple(ranges))
        self.hosts = hosts
        self.rows_served = served
        for shard_id, host in enumerate(self.hosts):
            host.shard_id = shard_id
        self._migration = None
        self.reshard_epoch += 1
        self.metrics.counter("shard.resharded_ranges").inc(len(new_hosts))
        self._emit({"type": "shard_event", "event": "resharded",
                    "kind": migration["kind"],
                    "n_shards": self.routing.n_shards,
                    "ranges": self.routing.range_summaries(),
                    "seq": self.lookup_seq})
        for host in drained:
            host.close()

    # -- fault application ----------------------------------------------

    def _apply_shard_faults(self, seq: int) -> None:
        if self.faults is None:
            return
        for shard_id, host in enumerate(self.hosts):
            while True:
                # Drain every event due at this sequence number, so
                # combined faults (e.g. a hang plus a heartbeat loss on
                # the same shard) land in one sweep.
                event: FaultEvent | None = self.faults.take_shard_fault(
                    f"shard.{shard_id}", seq
                )
                if event is None:
                    break
                if event.kind == "shard_crash":
                    host.inject_crash()
                elif event.kind == "shard_hang":
                    host.inject_hang(event.seconds)
                elif event.kind == "heartbeat_loss":
                    host.inject_mute()
                else:  # checkpoint_corrupt / checkpoint_torn
                    host.inject_checkpoint_fault(event.kind)
                self._emit({"type": "shard_event", "event": "fault_injected",
                            "kind": event.kind, "shard": shard_id,
                            "seq": seq})

    # -- the hot path ----------------------------------------------------

    def lookup(self, node_ids: np.ndarray) -> ShardLookupResult:
        """Scatter-gather one batch of rows across the shards.

        Applies any due shard faults first (so the fault's lookup
        sequence is the lookup that observes it), then walks the
        hedging ladder per shard.  With hedging disabled, the first
        shard failure propagates as-is.

        Raises:
            PartialResultError: hedging enabled but some shard had
                neither a live worker nor a durable checkpoint.
            ShardError: hedging disabled and a shard failed.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        self.lookup_seq += 1
        seq = self.lookup_seq
        self._apply_shard_faults(seq)
        refresh_sim_seconds = 0.0
        if self.refresher is not None:
            # Background maintenance rides the request loop: due shards
            # re-checkpoint (staggered, billed to the sim clock) before
            # this gather observes their staleness.
            refresh_before = self.refresher.sim_refresh_seconds
            self.refresher.tick(seq)
            refresh_sim_seconds = (
                self.refresher.sim_refresh_seconds - refresh_before
            )
        dim = self.table.shape[1]
        out = np.empty((len(node_ids), dim), dtype=np.float64)
        statuses: dict[int, str] = {}
        stale_rows = 0
        stale_ranges: list[tuple[int, int, int]] = []
        missing_ranges: list[tuple[int, int, int]] = []
        shard_details: list[dict] = []
        sim_seconds = 0.0
        self.metrics.counter("shard.lookups").inc()
        split = self.routing.split(node_ids)
        # Scatter: every shard's slice is on its way before the first
        # reply is awaited, so the shards gather side by side and the
        # call costs the slowest of them, not their sum.
        sent = {
            shard_id: self._send_primary(self.hosts[shard_id], ids)
            for shard_id, (_, ids) in split.items()
        }
        # Gather, in shard order: failures, hedges and repairs happen
        # one shard at a time exactly as if the calls were sequential.
        for shard_id, (positions, ids) in split.items():
            host = self.hosts[shard_id]
            self.rows_served[shard_id] += int(ids.size)
            nbytes = float(ids.size * dim * 8)
            rows, status, version = self._gather_one(
                host, ids, sent[shard_id]
            )
            if rows is None:
                statuses[shard_id] = STATUS_MISSING
                missing_ranges.append(
                    (shard_id, int(ids.min()), int(ids.max()) + 1)
                )
                continue
            out[positions] = rows
            statuses[shard_id] = status
            if status == STATUS_STALE or version < self.version:
                stale = int(ids.size)
                stale_rows += stale
                stale_ranges.append(
                    (shard_id, int(ids.min()), int(ids.max()) + 1)
                )
                self.metrics.counter("shard.stale_rows").inc(stale)
                shard_cost = self.cost_model.access_time(
                    self._pm,
                    Operation.READ,
                    AccessPattern.RANDOM,
                    Locality.LOCAL,
                    nbytes,
                )
                penalty = (
                    self.policy.hedge_sim_penalty_s
                    if status == STATUS_STALE
                    else 0.0
                )
                shard_cost += penalty
                shard_details.append(
                    {
                        "shard": shard_id,
                        "status": status,
                        "rows": int(ids.size),
                        "sim_seconds": shard_cost,
                        "hedge_penalty_s": penalty,
                        "stale": True,
                    }
                )
            else:
                shard_cost = self.cost_model.access_time(
                    self._dram,
                    Operation.READ,
                    AccessPattern.RANDOM,
                    Locality.LOCAL,
                    nbytes,
                )
                shard_details.append(
                    {
                        "shard": shard_id,
                        "status": status,
                        "rows": int(ids.size),
                        "sim_seconds": shard_cost,
                        "hedge_penalty_s": 0.0,
                        "stale": False,
                    }
                )
            sim_seconds += shard_cost
        if missing_ranges:
            self._emit({"type": "shard_event", "event": "partial",
                        "seq": seq,
                        "missing": [list(r) for r in missing_ranges]})
            raise PartialResultError(
                tuple(missing_ranges), tuple(stale_ranges)
            )
        return ShardLookupResult(
            rows=out,
            stale_rows=stale_rows,
            stale_ranges=tuple(stale_ranges),
            statuses=statuses,
            sim_seconds=sim_seconds,
            seq=seq,
            shard_details=tuple(shard_details),
            refresh_sim_seconds=refresh_sim_seconds,
        )

    @staticmethod
    def _send_primary(
        host: ShardHost, ids: np.ndarray
    ) -> "_SentLookup | ShardCrashError | ShardTimeoutError | None":
        """Send one shard's slice to its primary.

        A failure to send is returned, not raised: it is that shard's
        primary failure and is handled in its turn by
        :meth:`_gather_one`.  Abandoned shards are sent nothing.
        """
        if host.abandoned:
            return None
        try:
            return host.send_lookup(ids)
        except (ShardCrashError, ShardTimeoutError) as exc:
            return exc

    def _gather_one(
        self,
        host: ShardHost,
        ids: np.ndarray,
        sent: "_SentLookup | ShardCrashError | ShardTimeoutError | None",
    ) -> tuple[np.ndarray | None, str, int]:
        """The hedging ladder for one shard's slice of a lookup.

        ``sent`` is what :meth:`_send_primary` returned for this shard.
        """
        if host.abandoned:
            # Short-circuit: an abandoned shard is a settled fact, not a
            # fresh failure — go straight to the stale-checkpoint rung
            # without failure counters, supervisor callbacks, or
            # per-request hedge events (the one-time ``shard_abandoned``
            # record already told the live bus).
            if not self.policy.hedge_enabled:
                raise ShardCrashError(host.shard_id, "shard abandoned")
            self.metrics.counter(
                "shard.abandoned_reads", shard=str(host.shard_id)
            ).inc()
            try:
                rows, _ = host.recover_rows(ids)
                return rows, STATUS_STALE, host.checkpoint_version or 0
            except ShardCrashError:
                return None, STATUS_MISSING, -1
        try:
            if isinstance(sent, Exception):
                raise sent
            rows, version = host.finish_lookup(sent)
            return rows, STATUS_FRESH, version
        except (ShardCrashError, ShardTimeoutError) as exc:
            self.metrics.counter(
                "shard.failures",
                shard=str(host.shard_id),
                kind=type(exc).__name__,
            ).inc()
            if self.on_failure is not None:
                self.on_failure(host.shard_id, exc)
            if not self.policy.hedge_enabled:
                raise
        # Hedge 1: replicas share the segment, so they are fresh.
        for replica in range(1, 1 + self.policy.n_replicas):
            try:
                rows, version = host.lookup(ids, replica=replica)
                self.metrics.counter(
                    "shard.hedged", target="replica"
                ).inc()
                return rows, STATUS_REPLICA, version
            except (ShardCrashError, ShardTimeoutError):
                continue
        # Hedge 2: the stale checkpoint tier.
        try:
            rows, _ = host.recover_rows(ids)
            self.metrics.counter("shard.hedged", target="checkpoint").inc()
            self._emit({"type": "shard_event", "event": "hedged",
                        "shard": host.shard_id, "target": "checkpoint"})
            return rows, STATUS_STALE, host.checkpoint_version or 0
        except ShardCrashError:
            # No live worker and no verified checkpoint: a genuine miss.
            return None, STATUS_MISSING, -1
