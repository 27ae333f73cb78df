"""The owner side of one shard: its segment, workers and WAL.

A :class:`ShardHost` owns one contiguous node range ``[row_start,
row_end)``: the rows live in a named shared-memory segment served by a
primary worker process (plus optional replicas,
:mod:`repro.shard.transport`), and are journaled into a
:class:`~repro.memsim.persistence.StageCheckpointStore` on a simulated
PM persistence domain.  Lifecycle, checkpoint / restart / promote and
fault injection live here; routing, hedging and resharding are the
manager's (:mod:`repro.shard.store`).
"""

from __future__ import annotations

import os
import secrets
import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.faults import FaultEvent
from repro.formats.csdb import (
    attach_shared_array,
    create_shared_array,
    unlink_segment,
)
from repro.memsim.devices import (
    AccessPattern,
    Locality,
    Operation,
    pm_spec,
)
from repro.memsim.persistence import (
    PersistenceDomain,
    StageCheckpointStore,
    StageRecord,
)
from repro.parallel import mp_context
from repro.shard.errors import CheckpointCorruptionError, ShardCrashError
from repro.shard.transport import _SentLookup, _ShardWorker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.store import ShardPolicy

#: Simulated seconds charged per hedged shard (the abandoned primary
#: read plus coordination); also the whole cost of a replica promotion.
HEDGE_SIM_PENALTY_S = 5e-4


def wait_heartbeats(hosts: list[ShardHost], timeout_s: float = 2.0) -> bool:
    """Block until every live host's primary has beaten at least once."""
    deadline = time.monotonic() + timeout_s
    while not all(
        not host.alive() or host.heartbeat_value() > 0 for host in hosts
    ):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


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
        policy: "ShardPolicy",
        ctx=None,
    ) -> None:
        self.shard_id = shard_id
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
        self.spec = create_shared_array(
            np.asarray(rows, dtype=np.float64), self._name
        )
        self._view, self._segment = attach_shared_array(self.spec)
        self.domain = PersistenceDomain(device=pm_spec())
        self.checkpoints = StageCheckpointStore(self.domain)
        self._workers: list[_ShardWorker] = []
        self._closed = False

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
            self._ctx, self.spec, self.row_start, self._watermark
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
        but every earlier checkpoint stays durable.  The log copies the
        rows it is handed, so a later write never reaches the record,
        and keeps only the records recovery can still reach
        (:meth:`~repro.memsim.persistence.StageCheckpointStore.drop_unreachable`).
        """
        sequence = self.checkpoints.append(
            f"shard-{self.shard_id}",
            {"rows": self._view},
            {
                "version": self.version,
                "row_start": self.row_start,
                "row_end": self.row_end,
                "n_rows": self.n_rows,
            },
            crash=crash,
        )
        self.checkpoints.drop_unreachable()
        self.checkpoint_version = self.version
        return sequence

    def last_verified_record(self) -> StageRecord:
        """Newest checkpoint whose CRC verifies, quarantining bad ones.

        Recovery never trusts the simulated PM media: the log walks
        back past damaged records (``checkpoint_corrupt`` /
        ``checkpoint_torn`` faults), dropping each and reporting it via
        :attr:`on_quarantine`, instead of serving them or crashing the
        shard.

        Raises:
            CheckpointCorruptionError: every record failed verification.
            ShardCrashError: the log is empty.
        """
        if self.checkpoints.last() is None:
            raise ShardCrashError(self.shard_id, "no checkpoint to restore")
        record = self.checkpoints.last_verified(self._note_quarantine)
        if record is None:
            raise CheckpointCorruptionError(self.shard_id, self.quarantined)
        if self.checkpoint_version is not None:
            # Walk-back may land on an older checkpoint: the staleness
            # bound must report the truth.
            self.checkpoint_version = int(record.meta["version"])
        return record

    def _note_quarantine(self, record: StageRecord) -> None:
        self.quarantined += 1
        if self.on_quarantine is not None:
            self.on_quarantine(self.shard_id, record.sequence, "crc_mismatch")

    def recover_rows(self, node_ids: np.ndarray) -> tuple[np.ndarray, int]:
        """Stale-tier read from the newest *verified* checkpoint.

        Works with the shard's processes dead — this is the hedge of
        last resort.  Returns the rows and the checkpoint's version.
        """
        record = self.last_verified_record()
        ids = np.asarray(node_ids, dtype=np.int64) - self.row_start
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
        ids = np.asarray(node_ids, dtype=np.int64) - self.row_start
        self._view[ids] = rows

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
        self.recovery_sim_seconds += HEDGE_SIM_PENALTY_S
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

    def inject(self, event: FaultEvent) -> None:
        """Apply one shard fault of a fault plan to this shard."""
        if event.kind == "shard_crash":
            self.inject_crash()
        elif event.kind == "shard_hang":
            self.inject_hang(event.seconds)
        elif event.kind == "heartbeat_loss":
            self.inject_mute()
        else:  # checkpoint_corrupt / checkpoint_torn
            self.inject_checkpoint_fault(event.kind)

    def inject_crash(self) -> None:
        """Kill the primary deterministically (joined before return)."""
        self._workers[0].crash()

    def inject_hang(self, seconds: float) -> None:
        """Post a sleep to the primary (next lookup hits the deadline)."""
        self._workers[0].hang(seconds)

    def inject_mute(self) -> None:
        """Stop the primary's heartbeat while it keeps serving."""
        self._workers[0].mute()

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

        The deadline of the call (the policy's unless given) starts
        here; see :meth:`_ShardWorker.send_lookup
        <repro.shard.transport._ShardWorker.send_lookup>` for what is
        and is not written to a worker that owes an ack.

        Raises:
            ShardCrashError: the worker is dead or its pipe is closed.
            ShardTimeoutError: the owed acks did not arrive in time.
        """
        if replica >= len(self._workers):
            raise ShardCrashError(self.shard_id, f"no worker {replica}")
        if deadline_s is None:
            deadline_s = self.policy.lookup_deadline_s
        return self._workers[replica].send_lookup(
            self.shard_id, replica, node_ids, deadline_s
        )

    def finish_lookup(self, sent: _SentLookup) -> tuple[np.ndarray, int]:
        """Receive half of a lookup: the rows and the version they carry.

        The rows are read-only: a view of the worker's reply, not a
        copy.

        Raises:
            ShardCrashError: the worker died (EOF) or reported an error.
            ShardTimeoutError: no ack within the call's deadline; an ack
                that has already arrived is never a timeout.
        """
        return sent.worker.finish_lookup(sent)

    def lookup(
        self,
        node_ids: np.ndarray,
        deadline_s: float | None = None,
        replica: int = 0,
    ) -> tuple[np.ndarray, int]:
        """One live lookup against worker ``replica`` (send + receive).

        The rows are read-only, as from :meth:`finish_lookup`.

        Raises:
            ShardCrashError: the worker is (or dies) unresponsive.
            ShardTimeoutError: no ack within ``deadline_s``.
        """
        return self.finish_lookup(
            self.send_lookup(node_ids, deadline_s, replica)
        )
