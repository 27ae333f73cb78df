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
explicitly.  Every refresh is billed to the simulated clock (the PM
flush/fence cost of the checkpoint) — background maintenance is not
free, it is just off the request path.  :attr:`sim_refresh_seconds` is
the one ledger of those seconds: no lookup, response or request blame
carries a share of them.

The ``staleness_bound`` SLO kind
(:mod:`repro.obs.observatory.slo`) gates the result: the
``shard.staleness_max`` gauge this class maintains is the maximum
version lag any lookup ever observed, and the objective holds when it
stays at or below the configured bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import Gauge, MetricsRegistry
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
        #: The ``shard.staleness_max`` gauge, bound to the manager's
        #: registry of the last tick (rebound when that changes).
        self._bound_to: "MetricsRegistry | None" = None
        self._staleness_gauge: "Gauge | None" = None

    def staleness_of(self, host: "ShardHost") -> int:
        """A shard's current version lag against the whole table."""
        checkpointed = (
            host.checkpoint_version
            if host.checkpoint_version is not None
            else 0
        )
        return max(self.manager.version - checkpointed, 0)

    def tick(self, seq: int) -> None:
        """One request-loop tick; adds what it bills to
        :attr:`sim_refresh_seconds`.

        A shard is due when its staggered cadence slot comes up
        (``(seq + stagger) % checkpoint_interval == 0`` — shards
        checkpoint on *different* lookups, so no request pays for the
        whole fleet at once) or when its lag has already reached the
        staleness bound.  Shards with zero lag are skipped either way;
        abandoned shards are not refreshed (their segment is gone).
        """
        policy = self.manager.policy
        interval = policy.checkpoint_interval
        bound = policy.staleness_bound
        n_shards = max(len(self.manager.hosts), 1)
        worst = 0
        for shard_id, host in enumerate(self.manager.hosts):
            if host.abandoned:
                continue
            lag = self.staleness_of(host)
            worst = max(worst, lag)
            due = False
            if interval > 0:
                stagger = (shard_id * interval) // n_shards
                due = (seq + stagger) % interval == 0
            if not due and bound > 0 and lag >= bound:
                due = True
            if due and lag > 0:
                self._refresh(shard_id, host, lag)
        self.max_observed_staleness = max(
            self.max_observed_staleness, worst
        )
        metrics = self.manager.metrics
        if self._bound_to is not metrics:
            self._bound_to = metrics
            self._staleness_gauge = metrics.gauge("shard.staleness_max")
        self._staleness_gauge.set(float(self.max_observed_staleness))

    def _refresh(self, shard_id: int, host: "ShardHost", lag: int) -> None:
        before = host.domain.sim_seconds
        host.catch_up(self.manager.rows_for(host), self.manager.version)
        self.sim_refresh_seconds += host.domain.sim_seconds - before
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
