"""Multi-process sharded embedding store with hedged scatter-gather.

The embedding table is partitioned into contiguous node ranges
(EaTA's first pass when the caller supplies degrees, RR's equal rows
when it does not), each owned by a
:class:`~repro.shard.host.ShardHost` — segment, worker processes and
WAL — that talks to its workers over :mod:`repro.shard.transport`.

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

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.eata import entropy_aware_bounds, round_robin_bounds
from repro.faults import SHARD_SITE_KINDS, FaultInjector
from repro.memsim.costmodel import CostModel
from repro.memsim.devices import (
    AccessPattern,
    Locality,
    Operation,
    dram_spec,
    pm_spec,
)
from repro.obs.metrics import MetricsRegistry
from repro.parallel import mp_context
from repro.shard.errors import (
    PartialResultError,
    ShardCrashError,
    ShardTimeoutError,
)
from repro.shard.host import HEDGE_SIM_PENALTY_S, ShardHost, wait_heartbeats
from repro.shard.ranges import ShardRoutingTable
from repro.shard.refresh import BackgroundCheckpointer
from repro.shard.transport import _SentLookup, spin_window, usable_cpus

#: How rows were sourced for one shard of a scatter-gather.
STATUS_FRESH = "fresh"
STATUS_REPLICA = "replica"
STATUS_STALE = "stale"
STATUS_MISSING = "missing"


def _span(shard_id: int, ids: np.ndarray) -> tuple[int, int, int]:
    """``(shard_id, row_start, row_end)``: the node range a shard's
    slice of a lookup covered (only stale and missing slices report it)."""
    return shard_id, int(ids.min()), int(ids.max()) + 1


@dataclass(frozen=True)
class ShardPolicy:
    """Configuration of the sharded store.

    Attributes:
        n_shards: shard (process) count.
        n_replicas: extra lookup processes per shard sharing its
            segment; the first hedge target, and the promotion pool the
            supervisor fails over to on primary death.
        lookup_deadline_s: wall-clock deadline of one per-shard call.
            Must sit below injected hang durations for deterministic
            hedging, and far above a healthy roundtrip.
        hedge_enabled: when False, shard failures propagate instead of
            hedging (the unsupervised benchmark arm).
        checkpoint_interval: background checkpoint cadence in lookups
            (staggered per shard); 0 disables cadence-driven refresh.
        staleness_bound: refresh a shard as soon as
            ``table_version - checkpoint_version`` reaches this bound;
            0 disables the bound trigger.
    """

    n_shards: int = 4
    n_replicas: int = 0
    lookup_deadline_s: float = 0.25
    hedge_enabled: bool = True
    checkpoint_interval: int = 0
    staleness_bound: int = 0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.n_replicas < 0:
            raise ValueError(
                f"n_replicas must be >= 0, got {self.n_replicas}"
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


@dataclass(slots=True, eq=False)
class ShardLookupResult:
    """Outcome of one scatter-gather lookup (a plain record, built once
    per lookup; not to be mutated).

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
    """

    rows: np.ndarray
    stale_rows: int
    stale_ranges: tuple[tuple[int, int, int], ...]
    statuses: dict[int, str]
    sim_seconds: float
    seq: int
    shard_details: tuple[dict, ...] = ()


class EmbeddingShardManager:
    """Scatter-gather front of the sharded store.

    Owns the authoritative embedding table, the routing table, and one
    :class:`ShardHost` per range.  ``lookup`` is the hot path:
    fault-plan injection, per-shard deadlines, the hedging ladder, and
    staleness accounting all live here.

    Args:
        embeddings: the authoritative ``(n_nodes, dim)`` table.
        degrees: per-node degrees; given, the ranges are entropy-aware
            (EaTA cost-proxy quantiles), omitted, they are equal-row.
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
        #: Simulated seconds of one shard's gather, by ``(stale, rows)``:
        #: the cost model, both devices and the row width are fixed here,
        #: so a price never changes once computed.
        self._prices: dict[tuple[bool, int], float] = {}
        #: The ``shard.lookups`` increment, bound on the first lookup.
        self._lookups: Callable[[], None] | None = None
        n_nodes = len(self.table)
        self.degrees = None
        if degrees is None:
            bounds = round_robin_bounds(n_nodes, policy.n_shards)
        else:
            self.degrees = np.asarray(degrees, dtype=np.float64)
            if self.degrees.shape != (n_nodes,):
                raise ValueError(
                    f"degrees must be 1-D with one entry per table row:"
                    f" got shape {self.degrees.shape} for {n_nodes} rows"
                )
            if not np.all(np.isfinite(self.degrees) & (self.degrees >= 0)):
                raise ValueError("degrees must be finite and non-negative")
            bounds = entropy_aware_bounds(self.degrees, policy.n_shards)
        self.routing = ShardRoutingTable(
            ranges=tuple(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        )
        self.version = 0
        self.lookup_seq = 0
        self.hosts: list[ShardHost] = []
        self.rows_served: list[int] = [0] * self.routing.n_shards
        self.on_failure: Callable[[int, Exception], None] | None = None
        self.refresher: BackgroundCheckpointer | None = None
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
        routing: ShardRoutingTable,
        index: int,
        shard_id: int | None = None,
    ) -> ShardHost:
        """A host for range ``index`` of ``routing`` (its shard id
        ``index`` unless ``shard_id`` says otherwise); it spins when that
        table's shards leave a CPU to each spinner."""
        row_start, row_end = routing.ranges[index]
        host = ShardHost(
            index if shard_id is None else shard_id,
            self.table[row_start:row_end],
            row_start,
            self.policy,
            ctx=self._ctx,
            spin_s=spin_window(routing.n_shards, usable_cpus()),
        )
        host.version = self.version
        host.on_quarantine = self._note_quarantine
        return host

    def _note_quarantine(
        self, shard_id: int, sequence: int, reason: str
    ) -> None:
        self.metrics.counter(
            "shard.corrupt_checkpoints", shard=str(shard_id)
        ).inc()
        self._emit({"type": "shard_event", "event": "checkpoint_quarantined",
                    "shard": shard_id, "sequence": sequence,
                    "reason": reason})

    def start(self) -> float:
        """Spawn every shard and cut genesis checkpoints; returns what
        the checkpoints cost (a second call is free)."""
        if self._started:
            return 0.0
        seconds = 0.0
        try:
            for shard_id in range(self.routing.n_shards):
                host = self._new_host(self.routing, shard_id)
                self.hosts.append(host)
                seconds += host.start()
        except BaseException:
            self.close()
            raise
        if self.policy.refresh_enabled:
            self.refresher = BackgroundCheckpointer(self)
        self._started = True
        self._emit({"type": "shard_event", "event": "started",
                    "n_shards": self.routing.n_shards,
                    "partition": (
                        "entropy" if self.degrees is not None else "uniform"
                    ),
                    "ranges": self.routing.range_summaries()})
        return seconds

    def close(self) -> None:
        """Stop every shard process and unlink segments (idempotent)."""
        first: BaseException | None = None
        pending = self._warming
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
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- telemetry -------------------------------------------------------

    def _emit(self, record: dict[str, Any]) -> None:
        if self.stream is not None:
            self.stream.emit(record)

    # -- mutation --------------------------------------------------------

    def rows_for(self, host: ShardHost) -> np.ndarray:
        """The authoritative table slice a host owns."""
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
        split = self.routing.split(node_ids)  # ids checked before a write
        self.table[node_ids] = rows
        previous = self.version
        self.version += 1
        for shard, (_, ids) in split.items():
            self.hosts[shard].write_rows(ids, self.table[ids])
        warming = self._warming
        for host in warming:
            ids = node_ids[
                (node_ids >= host.row_start) & (node_ids < host.row_end)
            ]
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

    @property
    def _warming(self) -> list[ShardHost]:
        """The hosts an in-flight migration is warming (none: empty)."""
        return self._migration["hosts"] if self._migration is not None else []

    def load_imbalance(self) -> float:
        """Max served-rows share over mean share (1.0 = perfectly even)."""
        served = np.asarray(self.rows_served, dtype=np.float64)
        if served.sum() == 0:
            return 1.0
        return float(served.max() / served.mean())

    def _split_point(self, row_start: int, row_end: int) -> int:
        """Degree-mass midpoint of a range (row midpoint without degrees)."""
        if self.degrees is not None and row_end - row_start > 1:
            mass = np.cumsum(self.degrees[row_start:row_end] + 1.0)
            at = row_start + int(np.searchsorted(mass, mass[-1] / 2.0)) + 1
            return min(max(at, row_start + 1), row_end - 1)
        return (row_start + row_end) // 2

    def begin_split(self, shard_id: int, at: int | None = None) -> float:
        """Start migrating one hot shard's range onto two new hosts.

        The protocol is dual-route: until :meth:`finish_migration`
        swaps the routing table, reads keep hitting the old host while
        writes land on *both* the old host and the warming replacements
        — so the swap is atomic and lossless.  ``at`` overrides the
        degree-mass split point; a point that does not fall strictly
        inside the range (any point, for a range under two rows) is a
        ``ValueError``.  A host that fails to start takes the one before
        it down with it, and no migration is recorded.  Returns once the
        warmed primaries have beaten, so :meth:`migration_ready` holds
        from the next supervisor sweep on, whatever the host's speed.
        Returns what the two hosts' genesis checkpoints cost in
        simulated seconds (:meth:`ShardHost.start`).
        """
        row_start, row_end = self.routing.ranges[shard_id]
        at = self._split_point(row_start, row_end) if at is None else int(at)
        routing = self.routing.split_range(shard_id, at)
        if self._migration is not None:
            raise RuntimeError("a reshard migration is already in flight")
        new_ranges = routing.ranges[shard_id : shard_id + 2]
        hosts: list[ShardHost] = []
        seconds = 0.0
        try:
            for index in (shard_id, shard_id + 1):
                host = self._new_host(routing, index, shard_id=-1)
                hosts.append(host)
                seconds += host.start()
        except BaseException:
            for host in hosts:
                host.close()
            raise
        wait_heartbeats(hosts)
        self._migration = {
            "old": slice(shard_id, shard_id + 1),
            "hosts": hosts,
            "routing": routing,
        }
        self._emit({"type": "shard_event", "event": "reshard_begun",
                    "kind": "split", "shard": shard_id,
                    "ranges": [list(r) for r in new_ranges],
                    "seq": self.lookup_seq})
        return seconds

    def migration_ready(self) -> bool:
        """Whether every warming host is live and has heartbeaten."""
        return self.migrating and all(
            host.alive() and host.heartbeat_value() > 0
            for host in self._warming
        )

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
        new_hosts, old = migration["hosts"], migration["old"]
        drained = self.hosts[old]
        hosts = list(self.hosts)
        hosts[old] = new_hosts
        # Served rows move with the range, evenly, the remainder to the
        # first hosts — the total is conserved.
        served = list(self.rows_served)
        share, extra = divmod(sum(served[old]), len(new_hosts))
        served[old] = [
            share + (index < extra) for index in range(len(new_hosts))
        ]
        # The swap itself: routing, hosts, and accounting move together.
        self.routing = migration["routing"]
        self.hosts = hosts
        self.rows_served = served
        for shard_id, host in enumerate(self.hosts):
            host.shard_id = shard_id
        self._migration = None
        self.reshard_epoch += 1
        self.metrics.counter("shard.resharded_ranges").inc(len(new_hosts))
        self._emit({"type": "shard_event", "event": "resharded",
                    "kind": "split",
                    "n_shards": self.routing.n_shards,
                    "ranges": self.routing.range_summaries(),
                    "seq": self.lookup_seq})
        for host in drained:
            host.close()

    # -- fault application ----------------------------------------------

    def _apply_shard_faults(self, seq: int) -> None:
        for shard_id, host in enumerate(self.hosts):
            while True:
                # Drain every event due at this sequence number, so
                # combined faults (e.g. a hang plus a heartbeat loss on
                # the same shard) land in one sweep.
                event = self.faults.take(
                    SHARD_SITE_KINDS, f"shard.{shard_id}", seq=seq
                )
                if event is None:
                    break
                host.inject(event)
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
        if self._lookups is None:
            self._lookups = self.metrics.counter("shard.lookups").inc
        self.lookup_seq += 1
        seq = self.lookup_seq
        if self.faults is not None:
            self._apply_shard_faults(seq)
        # Background maintenance rides the request loop: due shards
        # re-checkpoint (staggered, billed to the sim clock) before
        # this gather observes their staleness.
        if self.refresher is not None:
            self.refresher.tick(seq)
        self._lookups()
        split = self.routing.split(node_ids)
        # Scatter: every shard's slice is on its way before the first
        # reply is awaited, so the shards gather side by side and the
        # call costs the slowest of them, not their sum.
        hosts = self.hosts
        slices = split.items()
        sent = [
            self._send_primary(hosts[shard_id], ids)
            for shard_id, (_, ids) in slices
        ]
        # While they gather: everything that does not need a reply.
        out = np.empty((len(node_ids), self.table.shape[1]))
        statuses: dict[int, str] = {}
        stale_rows = 0
        stale_ranges: list[tuple[int, int, int]] = []
        missing_ranges: list[tuple[int, int, int]] = []
        shard_details: list[dict] = []
        sim_seconds = 0.0
        version = self.version
        prices = self._prices
        rows_served = self.rows_served
        # Gather, in shard order: failures, hedges and repairs happen
        # one shard at a time exactly as if the calls were sequential.
        for handle, (shard_id, (positions, ids)) in zip(sent, slices):
            host = hosts[shard_id]
            n_rows = len(ids)
            rows_served[shard_id] += n_rows
            status, served_version = self._gather_one(
                host, ids, handle, out, positions
            )
            statuses[shard_id] = status
            if status == STATUS_MISSING:
                missing_ranges.append(_span(shard_id, ids))
                continue
            stale = status == STATUS_STALE or served_version < version
            if stale:
                stale_rows += n_rows
                stale_ranges.append(_span(shard_id, ids))
                self.metrics.counter("shard.stale_rows").inc(n_rows)
            # Fresh rows are DRAM reads; stale ones come off PM, and a
            # read that fell to the checkpoint tier also pays the hedge.
            penalty = HEDGE_SIM_PENALTY_S if status == STATUS_STALE else 0.0
            try:
                shard_cost = penalty + prices[stale, n_rows]
            except KeyError:
                shard_cost = penalty + self._price(stale, n_rows)
            shard_details.append(
                {
                    "shard": shard_id,
                    "status": status,
                    "rows": n_rows,
                    "sim_seconds": shard_cost,
                    "hedge_penalty_s": penalty,
                    "stale": stale,
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
        )

    def _price(self, stale: bool, n_rows: int) -> float:
        """Simulated seconds of reading ``n_rows`` rows of one shard:
        DRAM random reads when fresh, PM random reads when stale
        (computed once, then read from ``_prices``)."""
        price = self._prices[stale, n_rows] = self.cost_model.access_time(
            self._pm if stale else self._dram,
            Operation.READ,
            AccessPattern.RANDOM,
            Locality.LOCAL,
            float(n_rows * self.table.shape[1] * 8),
        )
        return price

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
        out: np.ndarray,
        positions: np.ndarray | slice,
    ) -> tuple[str, int]:
        """The hedging ladder for one shard's slice of a lookup: writes
        its rows to ``out[positions]`` and returns their status and
        version (``STATUS_MISSING`` and -1 when no rung served them).

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
                out[positions], _ = host.recover_rows(ids)
                return STATUS_STALE, host.checkpoint_version or 0
            except ShardCrashError:
                return STATUS_MISSING, -1
        try:
            if isinstance(sent, Exception):
                raise sent
            _, version = sent.worker.finish_lookup(sent, out, positions)
            return STATUS_FRESH, version
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
                hedge = host.send_lookup(ids, replica=replica)
                _, version = hedge.worker.finish_lookup(hedge, out, positions)
                self.metrics.counter("shard.hedged", target="replica").inc()
                return STATUS_REPLICA, version
            except (ShardCrashError, ShardTimeoutError):
                continue
        # Hedge 2: the stale checkpoint tier.
        try:
            out[positions], _ = host.recover_rows(ids)
            self.metrics.counter("shard.hedged", target="checkpoint").inc()
            self._emit({"type": "shard_event", "event": "hedged",
                        "shard": host.shard_id, "target": "checkpoint"})
            return STATUS_STALE, host.checkpoint_version or 0
        except ShardCrashError:
            # No live worker and no verified checkpoint: a genuine miss.
            return STATUS_MISSING, -1
