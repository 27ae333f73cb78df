"""The shard supervision tree: health checks, restarts, backoff.

:class:`ShardSupervisor` watches every :class:`~repro.shard.host.ShardHost`
two ways:

- **Reactively** — the manager's scatter-gather path reports each typed
  shard failure (:meth:`note_failure`), and the supervisor restarts the
  shard immediately, so a crash detected *by* a lookup is repaired
  before the next one.
- **Proactively** — :meth:`check` sweeps liveness: a dead primary is a
  crash; an alive primary whose heartbeat counter has not advanced for
  ``heartbeat_timeout_s`` wall seconds is hung (or muted — the
  ``heartbeat_loss`` fault makes a healthy shard look hung, and the
  supervisor restarts it anyway: availability over thrift).

Repair prefers **promotion over replay**: when the shard has a live
replica tracking the table version (a warm standby on the same shared
segment), the supervisor promotes it to primary
(:meth:`~repro.shard.host.ShardHost.promote_replica`) — zero WAL
replay, zero lost versions, simulated downtime of one hedge penalty.
Only when no fresh replica survives does it fall back to a WAL restart
(:meth:`~repro.shard.host.ShardHost.restart`), which restores the
newest *CRC-verified* checkpoint and reopens **bounded-stale**: at most
``table_version - checkpoint_version`` updates behind, a bound the
supervisor reports per incident.  Restarts are budgeted
(``max_restarts`` per shard); past the budget the shard is *abandoned*
and the manager serves its range from the checkpoint tier only.  Each
restart charges a full-jitter backoff delay from a seeded
:class:`~repro.core.asl.RetryPolicy` — recorded, not slept, so chaos
tests stay fast while the simulated account stays honest.

The supervisor is also the *elastic reshard* driver: when
``reshard_imbalance`` is set and per-shard served-row counts diverge
past it, :meth:`check` begins an online split of the hottest shard and
advances the in-flight migration each sweep until the warmed hosts are
drained in and the routing table swaps atomically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.asl import RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.shard.errors import ShardCrashError
from repro.shard.host import ShardHost, wait_heartbeats
from repro.shard.store import EmbeddingShardManager

#: Default restart backoff: full jitter, seeded, ~1 ms base.
DEFAULT_RESTART_BACKOFF = RetryPolicy(
    max_retries=8, base_delay_seconds=1e-3, jitter="full", jitter_seed=7
)


@dataclass(frozen=True)
class SupervisorPolicy:
    """Supervision thresholds and budgets.

    Attributes:
        heartbeat_timeout_s: wall seconds without heartbeat progress
            before an alive shard counts as hung.
        max_restarts: restarts allowed per shard before abandonment.
        restart_backoff: seeded (jittered) backoff schedule; each
            restart's delay is *recorded* as simulated seconds.
        reshard_imbalance: served-row load-imbalance ratio
            (max/mean over :attr:`EmbeddingShardManager.rows_served`)
            past which :meth:`ShardSupervisor.check` begins an online
            split of the hottest shard; ``0`` disables resharding.
        reshard_min_lookups: lookups that must have been served before
            imbalance is trusted (early traffic is too noisy to act on).
    """

    heartbeat_timeout_s: float = 0.5
    max_restarts: int = 8
    restart_backoff: RetryPolicy = field(
        default_factory=lambda: DEFAULT_RESTART_BACKOFF
    )
    reshard_imbalance: float = 0.0
    reshard_min_lookups: int = 20

    def __post_init__(self) -> None:
        if self.heartbeat_timeout_s <= 0:
            raise ValueError(
                "heartbeat_timeout_s must be > 0,"
                f" got {self.heartbeat_timeout_s}"
            )
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.reshard_imbalance < 0:
            raise ValueError(
                "reshard_imbalance must be >= 0,"
                f" got {self.reshard_imbalance}"
            )
        if self.reshard_min_lookups < 0:
            raise ValueError(
                "reshard_min_lookups must be >= 0,"
                f" got {self.reshard_min_lookups}"
            )


@dataclass(frozen=True)
class Incident:
    """One supervision action (returned by :meth:`ShardSupervisor.check`).

    Attributes:
        shard_id: the shard acted on.
        reason: ``"crash"`` / ``"hang"`` / ``"heartbeat"`` /
            ``"imbalance"``.
        action: ``"promote"``, ``"restart"``, ``"abandon"``, or
            ``"reshard"``.
        lost_versions: staleness the shard reopened with (restart only;
            a promotion always reopens at the live version, i.e. 0).
        backoff_s: jittered backoff charged for this restart.
        recovery_s: simulated seconds the repair itself cost (the PM
            checkpoint read of a WAL restart, or the hedge penalty of a
            promotion).
        seq: the store's lookup sequence number when the incident was
            acted on — the coordinate forensics joins incidents onto
            request trees with.
        sim_now_s: simulated clock position of the serve call that
            triggered the sweep (``None`` when :meth:`check` ran with
            no clock in hand, e.g. a bare health-check loop).
    """

    shard_id: int
    reason: str
    action: str
    lost_versions: int = 0
    backoff_s: float = 0.0
    recovery_s: float = 0.0
    seq: int = 0
    sim_now_s: float | None = None


class ShardSupervisor:
    """Health-checks the shard fleet and restarts from checkpoints."""

    def __init__(
        self,
        manager: EmbeddingShardManager,
        policy: SupervisorPolicy = SupervisorPolicy(),
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.manager = manager
        self.policy = policy
        self.metrics = metrics if metrics is not None else manager.metrics
        self.incidents: list[Incident] = []
        #: Simulated clock position of the serve call currently being
        #: supervised (stamped onto incidents for forensic joining).
        self._sim_now: float | None = None
        #: Heartbeat progress tracking: {(shard, generation): (value, wall_ts)}.
        self._beats: dict[tuple[int, int], tuple[int, float]] = {}
        #: Routing epoch last seen; a bump invalidates every beat key
        #: (shard ids are renumbered by a finished migration).
        self._reshard_epoch = manager.reshard_epoch
        manager.on_failure = self.note_failure

    # -- reactive path ---------------------------------------------------

    def note_failure(self, shard_id: int, exc: Exception) -> None:
        """Repair a shard the scatter-gather path just saw fail."""
        reason = "crash" if isinstance(exc, ShardCrashError) else "hang"
        self._repair(self.manager.hosts[shard_id], reason)

    # -- proactive path --------------------------------------------------

    def check(self, sim_now: float | None = None) -> list[Incident]:
        """One supervision sweep; returns the incidents acted on.

        ``sim_now`` is the caller's simulated clock position (the serve
        loop passes it); incidents raised during this sweep — and by
        reactive repairs until the next sweep — carry it, so forensics
        can join them onto overlapping request deadlines.
        """
        if sim_now is not None:
            self._sim_now = sim_now
        sweep: list[Incident] = []
        self._check_reshard(sweep)
        now = time.monotonic()
        for host in self.manager.hosts:
            if host.abandoned:
                continue
            if not host.alive():
                sweep.extend(self._repair(host, "crash"))
                continue
            key = (host.shard_id, host.generation)
            value = host.heartbeat_value()
            previous = self._beats.get(key)
            if previous is None or value != previous[0]:
                self._beats[key] = (value, now)
                continue
            if now - previous[1] >= self.policy.heartbeat_timeout_s:
                self.metrics.counter(
                    "shard.heartbeat_misses", shard=str(host.shard_id)
                ).inc()
                sweep.extend(self._repair(host, "heartbeat"))
        return sweep

    def wait_heartbeats(self, timeout_s: float = 2.0) -> bool:
        """Block until every live shard has beaten at least once."""
        return wait_heartbeats(self.manager.hosts, timeout_s)

    # -- elastic reshard -------------------------------------------------

    def _check_reshard(self, sweep: list[Incident]) -> None:
        """Advance an in-flight migration, or begin one on imbalance."""
        manager = self.manager
        if manager.reshard_epoch != self._reshard_epoch:
            self._beats.clear()
            self._reshard_epoch = manager.reshard_epoch
        if manager.migrating:
            if manager.migration_ready():
                manager.finish_migration()
                self._beats.clear()
                self._reshard_epoch = manager.reshard_epoch
            return
        policy = self.policy
        if policy.reshard_imbalance <= 0:
            return
        if manager.lookup_seq < policy.reshard_min_lookups:
            return
        if manager.load_imbalance() < policy.reshard_imbalance:
            return
        served = manager.rows_served
        hottest = max(range(len(served)), key=lambda i: served[i])
        start, end = manager.routing.ranges[hottest]
        if end - start < 2 or manager.hosts[hottest].abandoned:
            return
        manager.begin_split(hottest)
        incident = Incident(
            shard_id=hottest, reason="imbalance", action="reshard",
            seq=manager.lookup_seq, sim_now_s=self._sim_now,
        )
        self._record(incident)
        sweep.append(incident)

    # -- repair ----------------------------------------------------------

    def _repair(self, host: ShardHost, reason: str) -> list[Incident]:
        if host.abandoned:
            return []
        # Promotion first: a warm standby already tracks the live
        # version, so failover costs one hedge penalty and replays
        # nothing.  WAL restart is the no-fresh-replica fallback.
        if host.policy.n_replicas > 0 and host.has_fresh_replica():
            before = host.recovery_sim_seconds
            try:
                host.promote_replica()
            except ShardCrashError:
                pass  # replica died under us: fall through to restart
            else:
                self._beats.pop((host.shard_id, host.generation - 1), None)
                incident = Incident(
                    shard_id=host.shard_id,
                    reason=reason,
                    action="promote",
                    lost_versions=0,
                    recovery_s=host.recovery_sim_seconds - before,
                    seq=self.manager.lookup_seq,
                    sim_now_s=self._sim_now,
                )
                self._record(incident)
                return [incident]
        if host.restarts >= self.policy.max_restarts:
            host.abandoned = True
            incident = Incident(
                shard_id=host.shard_id, reason=reason, action="abandon",
                seq=self.manager.lookup_seq, sim_now_s=self._sim_now,
            )
            self._record(incident)
            return [incident]
        backoff = self.policy.restart_backoff.delay(host.restarts)
        before = host.recovery_sim_seconds
        try:
            lost = host.restart()
        except ShardCrashError:
            # No verified checkpoint survives (all quarantined): the
            # shard cannot reopen with trusted rows, so abandon it.
            host.abandoned = True
            incident = Incident(
                shard_id=host.shard_id, reason=reason, action="abandon",
                seq=self.manager.lookup_seq, sim_now_s=self._sim_now,
            )
            self._record(incident)
            return [incident]
        self._beats.pop((host.shard_id, host.generation - 1), None)
        incident = Incident(
            shard_id=host.shard_id,
            reason=reason,
            action="restart",
            lost_versions=lost,
            backoff_s=backoff,
            recovery_s=host.recovery_sim_seconds - before,
            seq=self.manager.lookup_seq,
            sim_now_s=self._sim_now,
        )
        self._record(incident)
        return [incident]

    def _record(self, incident: Incident) -> None:
        self.incidents.append(incident)
        if incident.action == "restart":
            self.metrics.counter(
                "shard.restarts",
                shard=str(incident.shard_id),
                reason=incident.reason,
            ).inc()
            self.metrics.histogram("shard.restart_backoff").observe(
                incident.backoff_s
            )
        elif incident.action == "promote":
            self.metrics.counter(
                "shard.promotions", shard=str(incident.shard_id)
            ).inc()
        elif incident.action == "reshard":
            self.metrics.counter(
                "shard.reshards", shard=str(incident.shard_id)
            ).inc()
        else:
            self.metrics.counter(
                "shard.abandoned", shard=str(incident.shard_id)
            ).inc()
        self._emit(incident)

    def _emit(self, incident: Incident) -> None:
        event = (
            "shard_abandoned"
            if incident.action == "abandon"
            else incident.action
        )
        record: dict[str, Any] = {
            "type": "shard_event",
            "event": event,
            "shard": incident.shard_id,
            "reason": incident.reason,
            "lost_versions": incident.lost_versions,
            "backoff_s": incident.backoff_s,
            "recovery_s": incident.recovery_s,
            "seq": incident.seq,
            "sim_now_s": incident.sim_now_s,
        }
        self.manager._emit(record)
