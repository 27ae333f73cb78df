"""Sharded serving backend: the store's scatter-gather behind the ladder.

:class:`ShardedEmbeddingBackend` keeps the monolithic backend's warmup,
cost model, stall faults, and global stale tier, but sources
full-fidelity rows from an :class:`~repro.shard.EmbeddingShardManager`
— so shard crashes, hangs, and heartbeat losses injected by a fault
plan flow through real processes into the serving ladder:

- a hedged gather (replica or checkpoint tier) serves on the same rung
  with ``stale_rows`` marked, degrading *within* the rung;
- a :class:`~repro.shard.PartialResultError` falls one rung without a
  breaker failure (per-shard loss is not backend-wide loss);
- with hedging disabled (the unsupervised arm) the raw
  :class:`~repro.shard.ShardCrashError` escapes and the server fails
  the request — the availability gap the recovery benchmark measures.

A :class:`~repro.shard.ShardSupervisor` (optional) is consulted once
per serve call (:meth:`~repro.shard.ShardSupervisor.check_paced`): it
stamps the serve clock and steps resharding every call, and sweeps
liveness at the heartbeat's pace, like a health-check loop would.  A
shard that dies between two sweeps fails the next lookup that reaches
it, which hedges that read and repairs the shard on the spot.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.embedding import OMeGaEmbedder
from repro.faults import FaultInjector
from repro.graphs.partition import (
    balanced_edge_partition,
    edge_cut_fraction,
    hash_partition,
    partition_load_balance,
)
from repro.obs.forensics.records import (
    BLAME_BREAKER,
    BLAME_KERNEL,
    BLAME_SHARD_HEDGE,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.backend import (
    FIDELITY_FULL,
    BackendResponse,
    EmbeddingBackend,
)
from repro.shard.store import EmbeddingShardManager, ShardPolicy
from repro.shard.supervisor import ShardSupervisor, SupervisorPolicy


class ShardedEmbeddingBackend(EmbeddingBackend):
    """An :class:`EmbeddingBackend` whose full tier is a sharded store.

    Args:
        embedder: pipeline used to materialize the tiers.
        edges: the graph's edge list.
        n_nodes: node count.
        shard_policy: sharded-store configuration.
        supervisor_policy: supervision thresholds; ``None`` disables
            supervision entirely (the unsupervised benchmark arm).
        faults: one injector shared by serve-level and shard-level
            fault plans.
        stream: live telemetry stream for ``shard_event`` records.
    """

    def __init__(
        self,
        embedder: OMeGaEmbedder,
        edges: np.ndarray,
        n_nodes: int,
        shard_policy: ShardPolicy = ShardPolicy(),
        supervisor_policy: SupervisorPolicy | None = SupervisorPolicy(),
        faults: FaultInjector | None = None,
        metrics: MetricsRegistry | None = None,
        stream=None,
    ) -> None:
        super().__init__(embedder, edges, n_nodes, faults=faults, metrics=metrics)
        self.shard_policy = shard_policy
        self.supervisor_policy = supervisor_policy
        self.stream = stream
        self.shards: EmbeddingShardManager | None = None
        self.supervisor: ShardSupervisor | None = None
        self.placement: dict | None = None
        self._serve_seq = 0
        #: The full tier's ``serve.backend.calls`` /
        #: ``serve.backend.sim_seconds`` increments, bound on the first
        #: full-tier call.
        self._count_call: Callable[[], None] | None = None
        self._count_seconds: Callable[[float], None] | None = None

    # -- warmup ----------------------------------------------------------

    def warm_up(self) -> float:
        """Build the tiers, then shard the full table into processes.

        The shard genesis checkpoints' persistence cost joins the
        warmup bill; a second call is free, as for the monolithic
        backend.
        """
        if self.warm:
            return 0.0
        seconds = super().warm_up()
        degrees = np.bincount(
            np.asarray(self.edges, dtype=np.int64).ravel(),
            minlength=self.n_nodes,
        )[: self.n_nodes]
        shards = EmbeddingShardManager(
            self._full,
            degrees=degrees,
            policy=self.shard_policy,
            faults=self.faults,
            metrics=self.metrics,
            stream=self.stream,
            cost_model=self.embedder.engine.cost_model,
        )
        seconds += shards.start()
        self.shards = shards
        if self.supervisor_policy is not None:
            self.supervisor = ShardSupervisor(
                self.shards, self.supervisor_policy, metrics=self.metrics
            )
            self.supervisor.wait_heartbeats()
        self.placement = self._measure_placement(degrees)
        return seconds

    def _measure_placement(self, degrees: np.ndarray) -> dict:
        """Real shard placement vs the DistDGL / DistGER cost models.

        The store's actual node->shard assignment (its contiguous,
        entropy-aware ranges) is scored with the same balance and
        edge-cut measures as two simulated baselines: DistDGL-style
        random hashing (``hash_partition``) and DistGER-style
        workload-balanced chunking (``balanced_edge_partition``).
        Published as ``shard.placement.*`` gauges so ``repro diff
        --shard-placement`` can compare runs.
        """
        n_shards = self.shards.routing.n_shards
        all_ids = np.arange(self.n_nodes, dtype=np.int64)
        real = self.shards.routing.shard_of(all_ids)
        weights = degrees.astype(np.float64)
        edges = np.asarray(self.edges, dtype=np.int64)
        models = {
            "real": real,
            "distdgl": hash_partition(self.n_nodes, n_shards),
            "distger": balanced_edge_partition(weights, n_shards),
        }
        placement: dict = {
            "n_shards": n_shards,
            "rows": [int((real == s).sum()) for s in range(n_shards)],
            "nnz": [
                float(weights[real == s].sum()) for s in range(n_shards)
            ],
            "models": {},
        }
        for model, assignment in models.items():
            balance = partition_load_balance(assignment, weights=weights)
            cut = edge_cut_fraction(edges, assignment)
            placement["models"][model] = {
                "balance": balance, "edge_cut": cut
            }
            self.metrics.gauge(
                "shard.placement.balance", model=model
            ).set(balance)
            self.metrics.gauge(
                "shard.placement.edge_cut", model=model
            ).set(cut)
        for shard, (rows, nnz) in enumerate(
            zip(placement["rows"], placement["nnz"])
        ):
            self.metrics.gauge(
                "shard.placement.rows", shard=str(shard)
            ).set(float(rows))
            self.metrics.gauge(
                "shard.placement.nnz", shard=str(shard)
            ).set(nnz)
        return placement

    def close(self) -> None:
        """Stop every shard process and unlink their segments."""
        if self.shards is not None:
            self.shards.close()
            self.shards = None
        self.supervisor = None

    def __enter__(self) -> "ShardedEmbeddingBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- serving ---------------------------------------------------------

    def _request_ids(self, n_nodes: int) -> np.ndarray:
        """Deterministic node ids of one request, spread across shards.

        A strided walk with a per-request offset, so consecutive
        requests touch every shard rather than camping on shard 0 —
        the access pattern that makes single-shard loss visible.
        """
        total = self.shards.routing.n_nodes
        # A request of no ids walks nothing, whatever the stride.
        stride = total // n_nodes if 0 < n_nodes <= total else 1
        offset = (self._serve_seq * 13) % total
        walk = np.arange(
            offset, offset + n_nodes * stride, stride, dtype=np.int64
        )
        walk %= total
        return walk

    def serve(
        self,
        n_nodes: int,
        fidelity: str,
        stall_budget_s: float,
        sim_now: float | None = None,
    ) -> BackendResponse:
        """One compute-tier call; the full tier gathers from the shards.

        Raises:
            BackendStallError: injected stall outlived the budget.
            PartialResultError: a shard range had no rung left to serve.
            ShardError: hedging disabled and a shard failed.
        """
        if fidelity != FIDELITY_FULL:
            return super().serve(n_nodes, fidelity, stall_budget_s, sim_now)
        shards = self.shards
        if shards is None:
            self._require_warm()
            raise RuntimeError("backend is closed")
        if self.supervisor is not None:
            # The health-check loop runs between requests, its liveness
            # reads at the heartbeat's pace.  The caller's clock position
            # stamps any incident raised here (or reactively during the
            # gather below), so `repro why` can join it onto overlapping
            # request deadlines.
            self.supervisor.check_paced(sim_now)
        seconds, absorbed_stall = self._compute_seconds(
            n_nodes, fidelity, stall_budget_s
        )
        self._serve_seq += 1
        result = shards.lookup(self._request_ids(n_nodes))
        if self._count_call is None:
            self._count_call = self.metrics.counter(
                "serve.backend.calls", fidelity=FIDELITY_FULL
            ).inc
            self._count_seconds = self.metrics.counter(
                "serve.backend.sim_seconds", fidelity=FIDELITY_FULL
            ).inc
        total = seconds + result.sim_seconds
        self._count_call()
        self._count_seconds(total)
        hedge_s = 0.0
        for detail in result.shard_details:
            if detail["stale"]:
                hedge_s += detail["sim_seconds"]
        # Kernel is the residual, so the breakdown sums to the total
        # exactly: compute + fresh DRAM gathers vs the hedged PM reads
        # (+ penalties) vs the absorbed stall.
        breakdown = {BLAME_KERNEL: total - absorbed_stall - hedge_s}
        if absorbed_stall > 0.0:
            breakdown[BLAME_BREAKER] = absorbed_stall
        if hedge_s > 0.0:
            breakdown[BLAME_SHARD_HEDGE] = hedge_s
        return BackendResponse(
            result.rows,
            fidelity,
            total,
            stale_rows=result.stale_rows,
            breakdown=breakdown,
            shard_details=result.shard_details,
            lookup_seq=result.seq,
        )

    # -- introspection ---------------------------------------------------

    def shard_summary(self) -> dict:
        """Headline shard-fleet numbers for reports and the CLI."""
        if self.shards is None:
            return {"n_shards": 0}
        shards = self.shards
        restarts = sum(host.restarts for host in shards.hosts)
        refresher = shards.refresher
        return {
            "n_shards": shards.routing.n_shards,
            "ranges": shards.routing.range_summaries(),
            "lookups": shards.lookup_seq,
            "rows_served": list(shards.rows_served),
            "load_imbalance": shards.load_imbalance(),
            "restarts": restarts,
            "promotions": sum(host.promotions for host in shards.hosts),
            "abandoned": sum(
                1 for host in shards.hosts if host.abandoned
            ),
            "reshard_epoch": shards.reshard_epoch,
            "resharded_ranges": int(
                self.metrics.value("shard.resharded_ranges")
            ),
            "corrupt_checkpoints": sum(
                host.quarantined for host in shards.hosts
            ),
            "bg_checkpoints": (
                refresher.bg_checkpoints if refresher is not None else 0
            ),
            "staleness_max": (
                refresher.max_observed_staleness
                if refresher is not None
                else 0
            ),
            "refresh_sim_seconds": (
                refresher.sim_refresh_seconds
                if refresher is not None
                else 0.0
            ),
            "stale_rows": int(self.metrics.value("shard.stale_rows")),
            "hedged_checkpoint": int(
                self.metrics.value("shard.hedged", target="checkpoint")
            ),
            "hedged_replica": int(
                self.metrics.value("shard.hedged", target="replica")
            ),
            "placement": self.placement,
            "incidents": (
                [
                    {
                        "shard": i.shard_id,
                        "reason": i.reason,
                        "action": i.action,
                        "lost_versions": i.lost_versions,
                        "recovery_s": i.recovery_s,
                    }
                    for i in self.supervisor.incidents
                ]
                if self.supervisor is not None
                else []
            ),
        }
