"""Background checkpoint refresh: bounded staleness under live traffic.

PR 7's store only re-checkpointed on explicit ``catch_up``, so
``table_version - checkpoint_version`` grew without bound between
repairs — a crash late in a busy window reopened arbitrarily stale.
:class:`BackgroundCheckpointer` closes that gap online: it rides the
scatter-gather request loop (:meth:`tick` is called once per lookup,
before the gather), re-checkpointing each shard on a per-shard
*staggered* cadence (``ShardPolicy.checkpoint_interval`` lookups) and —
independently — the moment a shard's version lag reaches
``ShardPolicy.staleness_bound``.

A refresh replays the manager's authoritative rows into the shard
segment and cuts a fresh WAL checkpoint
(:meth:`~repro.shard.host.ShardHost.catch_up`), so it also heals
shards that restarted stale, without anyone calling ``catch_up``
explicitly.  Every refresh is billed in simulated seconds (the PM
flush/fence cost of the checkpoint, as ``catch_up`` returns it) —
background maintenance is not free, it is just off the request path.
:attr:`sim_refresh_seconds` adds up those returns: no lookup, response
or request blame carries a share of them.

The ``staleness_bound`` SLO kind
(:mod:`repro.obs.observatory.slo`) gates the result: the
``shard.staleness_max`` gauge this class maintains is the maximum
version lag any lookup ever observed, and the objective holds when it
stays at or below the configured bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import Gauge
    from repro.shard.host import ShardHost
    from repro.shard.store import EmbeddingShardManager


class BackgroundCheckpointer:
    """Cadence- and bound-driven per-shard re-checkpointer.

    Attributes:
        bg_checkpoints: refreshes performed (also the
            ``shard.bg_checkpoints`` counter).
        sim_refresh_seconds: simulated PM seconds the refreshes cost.
        max_observed_staleness: worst ``table_version -
            checkpoint_version`` any tick observed *before* refreshing
            (also the ``shard.staleness_max`` gauge) — the number the
            ``staleness_bound`` SLO is evaluated against.
    """

    def __init__(self, manager: "EmbeddingShardManager") -> None:
        self.manager = manager
        self.bg_checkpoints = 0
        self.sim_refresh_seconds = 0.0
        self.max_observed_staleness = 0
        #: The ``shard.staleness_max`` gauge, bound on the first tick and
        #: written only when the observed maximum rises.
        self._staleness_gauge: "Gauge | None" = None

    def tick(self, seq: int) -> None:
        """One request-loop tick; adds what it bills to
        :attr:`sim_refresh_seconds`.

        A shard's lag is ``table_version - checkpoint_version`` (no
        checkpoint counts as version 0).  A shard is due when its
        staggered cadence slot comes up (``(seq + stagger) %
        checkpoint_interval == 0`` — shards checkpoint on *different*
        lookups, so no request pays for the whole fleet at once) or when
        its lag has already reached the staleness bound.  Shards with
        zero lag are skipped either way; abandoned shards are not
        refreshed (their segment is gone).
        """
        manager = self.manager
        hosts = manager.hosts
        version = manager.version
        policy = manager.policy
        interval = policy.checkpoint_interval
        bound = policy.staleness_bound
        worst = 0
        for shard_id, host in enumerate(hosts):
            checkpointed = host.checkpoint_version
            lag = version - (checkpointed if checkpointed is not None else 0)
            if lag <= 0 or host.abandoned:
                continue
            if lag > worst:
                worst = lag
            due = bound > 0 and lag >= bound
            if not due and interval > 0:
                stagger = (shard_id * interval) // len(hosts)
                due = (seq + stagger) % interval == 0
            if due:
                self._refresh(shard_id, host, lag)
        gauge = self._staleness_gauge
        if gauge is None:
            gauge = self._staleness_gauge = manager.metrics.gauge(
                "shard.staleness_max"
            )
            gauge.set(float(self.max_observed_staleness))
        if worst > self.max_observed_staleness:
            self.max_observed_staleness = worst
            gauge.set(float(worst))

    def _refresh(self, shard_id: int, host: "ShardHost", lag: int) -> None:
        self.sim_refresh_seconds += host.catch_up(
            self.manager.rows_for(host), self.manager.version
        )
        self.bg_checkpoints += 1
        self.manager.metrics.counter(
            "shard.bg_checkpoints", shard=str(shard_id)
        ).inc()
        self.manager._emit(
            {
                "type": "shard_event",
                "event": "bg_checkpoint",
                "shard": shard_id,
                "version": self.manager.version,
                "lag_closed": lag,
            }
        )
