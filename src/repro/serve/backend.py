"""The embedding backend behind the resilient server.

One :class:`EmbeddingBackend` fronts one graph.  ``warm_up()`` runs the
full ProNE pipeline once (through the stage-checkpointing layer, so the
checkpoint store holds a durable copy — the *stale* tier) and a
spectral-propagation-only pass (the mid-fidelity tier), then calibrates
per-node serving costs from the measured stage times:

- ``full`` — per-request recompute at full-pipeline cost per node
  (tSVD bootstrap + propagation), the freshest answer;
- ``propagation_only`` — per-request recompute at propagation-stage
  cost per node, skipping the factorization;
- ``stale`` — a random read of the requested rows from the PM-resident
  checkpoint, costed by the device model; never touches the backend
  compute path, so it stays available when the circuit breaker is open.

Injected ``backend_stall`` faults hang a compute-tier call; the caller's
stall budget converts long stalls into
:class:`~repro.faults.BackendStallError` (a breaker-visible failure).
``pm_degrade`` faults derate the serving costs like they derate the
pipeline's streaming bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.embedding import OMeGaEmbedder
from repro.faults import BackendStallError, FaultInjector
from repro.formats.convert import edges_to_csdb
from repro.memsim.devices import (
    AccessPattern,
    Locality,
    MemoryKind,
    Operation,
)
from repro.memsim.persistence import CheckpointedEmbedder
from repro.obs.forensics.records import (
    BLAME_BREAKER,
    BLAME_KERNEL,
    BLAME_STALE_FALLBACK,
)
from repro.obs.metrics import MetricsRegistry

#: Fidelity levels, best first (the degradation ladder's rungs).
FIDELITY_FULL = "full"
FIDELITY_PROPAGATION = "propagation_only"
FIDELITY_STALE = "stale"
FIDELITY_LEVELS = (FIDELITY_FULL, FIDELITY_PROPAGATION, FIDELITY_STALE)


@dataclass(slots=True, eq=False)
class BackendResponse:
    """Rows served at one fidelity, with the simulated cost paid.

    ``stale_rows`` counts the rows a sharded store hedged to its
    checkpoint tier (zero for the monolithic backend).

    ``breakdown`` itemizes ``sim_seconds`` by blame category (see
    :mod:`repro.obs.forensics`); its values sum exactly to
    ``sim_seconds`` because the dominant (kernel) share is built as the
    residual.  ``shard_details`` / ``lookup_seq`` pass the sharded
    store's per-gather itemization through to the server's forensics
    collector.  Background-checkpoint seconds are not part of a
    response: the store's refresher keeps them in its own ledger.
    """

    rows: np.ndarray
    fidelity: str
    sim_seconds: float
    breakdown: dict[str, float]
    stale_rows: int = 0
    shard_details: tuple[dict, ...] = ()
    lookup_seq: int | None = None


class EmbeddingBackend:
    """Warmed embedding tiers plus per-request cost simulation."""

    def __init__(
        self,
        embedder: OMeGaEmbedder,
        edges: np.ndarray,
        n_nodes: int,
        faults: FaultInjector | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.embedder = embedder
        self.edges = np.asarray(edges)
        self.n_nodes = n_nodes
        self.faults = faults
        self.metrics = (
            metrics if metrics is not None else embedder.metrics
        )
        self._full: np.ndarray | None = None
        self._propagation: np.ndarray | None = None
        self._checkpointed: CheckpointedEmbedder | None = None
        self._stale: np.ndarray | None = None
        self._full_cost_per_node = 0.0
        self._propagation_cost_per_node = 0.0
        self.warmup_sim_seconds = 0.0

    # -- warmup ----------------------------------------------------------

    @property
    def warm(self) -> bool:
        """True once the embedding tiers are materialized."""
        return self._full is not None

    def warm_up(self) -> float:
        """Build every serving tier; returns the simulated warmup cost.

        Idempotent: a second call is free.
        """
        if self.warm:
            return self.warmup_sim_seconds
        self._checkpointed = CheckpointedEmbedder(self.embedder)
        result = self._checkpointed.embed_with_checkpoints(
            self.edges, self.n_nodes
        )
        self._full = result.embedding
        generation = result.factorization_seconds + result.propagation_seconds
        self._full_cost_per_node = generation / max(self.n_nodes, 1)
        adjacency = edges_to_csdb(self.edges, self.n_nodes)
        self._propagation, propagation_seconds = (
            self.embedder.propagate_only(adjacency)
        )
        self._propagation_cost_per_node = propagation_seconds / max(
            self.n_nodes, 1
        )
        self.warmup_sim_seconds = (
            result.sim_seconds
            + propagation_seconds
            + self._checkpointed.checkpoint_sim_seconds
        )
        self.metrics.counter("serve.backend.warmups").inc()
        return self.warmup_sim_seconds

    def _require_warm(self) -> None:
        if not self.warm:
            raise RuntimeError("backend is cold; call warm_up() first")

    # -- calibration hooks (trace synthesis, policy defaults) ------------

    def compute_cost(self, n_nodes: int, fidelity: str = FIDELITY_FULL) -> float:
        """Healthy simulated cost of one compute-tier request."""
        self._require_warm()
        per_node = (
            self._full_cost_per_node
            if fidelity == FIDELITY_FULL
            else self._propagation_cost_per_node
        )
        return per_node * n_nodes

    def cached_cost(self, n_nodes: int) -> float:
        """Simulated cost of reading ``n_nodes`` rows from the PM tier."""
        pm = self.embedder.config.topology.device(MemoryKind.PM)
        nbytes = float(n_nodes * self.embedder.params.dim * 8)
        return self.embedder.engine.cost_model.access_time(
            pm, Operation.READ, AccessPattern.RANDOM, Locality.LOCAL, nbytes
        )

    # -- serving ---------------------------------------------------------

    def _rows(self, source: np.ndarray, n_nodes: int) -> np.ndarray:
        ids = np.arange(n_nodes) % len(source)
        return source[ids]

    def _compute_seconds(
        self, n_nodes: int, fidelity: str, stall_budget_s: float
    ) -> tuple[float, float]:
        """Derated cost of one compute call plus any stall it absorbed,
        as ``(seconds, absorbed_stall)``; raises
        :class:`BackendStallError` when a stall outlives the budget."""
        seconds = self.compute_cost(n_nodes, fidelity)
        absorbed_stall = 0.0
        if self.faults is not None:
            seconds /= self.faults.pm_derate()
            stall = self.faults.take_backend_stall()
            if stall is not None:
                self.metrics.counter("serve.backend.stalls").inc()
                if stall.seconds > stall_budget_s:
                    raise BackendStallError(stall.site, stall_budget_s)
                absorbed_stall = stall.seconds
                seconds += absorbed_stall
        return seconds, absorbed_stall

    def serve(
        self,
        n_nodes: int,
        fidelity: str,
        stall_budget_s: float,
        sim_now: float | None = None,
    ) -> BackendResponse:
        """One compute-tier call (``full`` or ``propagation_only``).

        ``sim_now`` is the caller's simulated clock position — unused
        by the monolithic backend, consumed by the sharded one to stamp
        supervisor incidents for forensic joining.

        Raises:
            BackendStallError: an injected stall outlived
                ``stall_budget_s`` — the caller paid the budget and
                abandoned the call (a circuit-breaker failure).
        """
        del sim_now
        self._require_warm()
        if fidelity not in (FIDELITY_FULL, FIDELITY_PROPAGATION):
            raise ValueError(
                f"compute tier serves {FIDELITY_FULL!r} or"
                f" {FIDELITY_PROPAGATION!r}, got {fidelity!r}"
            )
        seconds, absorbed_stall = self._compute_seconds(
            n_nodes, fidelity, stall_budget_s
        )
        source = (
            self._full if fidelity == FIDELITY_FULL else self._propagation
        )
        self.metrics.counter("serve.backend.calls", fidelity=fidelity).inc()
        self.metrics.counter(
            "serve.backend.sim_seconds", fidelity=fidelity
        ).inc(seconds)
        breakdown = {BLAME_KERNEL: seconds - absorbed_stall}
        if absorbed_stall > 0.0:
            # A stall that fit inside the budget still cost real time:
            # charged to the breaker bucket (the budget it burned).
            breakdown[BLAME_BREAKER] = absorbed_stall
        return BackendResponse(
            self._rows(source, n_nodes),
            fidelity,
            seconds,
            breakdown=breakdown,
        )

    def serve_cached(self, n_nodes: int) -> BackendResponse:
        """The stale tier: checkpointed rows at PM read cost, fault-free."""
        self._require_warm()
        if self._stale is None:
            # Recovered on the first stale request, not per request and
            # not in warm_up: the checkpoint never changes under a warm
            # backend, and every response is a gathered copy.
            cached = self._checkpointed.recover_embedding()
            if cached is None:  # pragma: no cover - warm_up always commits
                raise RuntimeError(
                    "no durable embedding in the checkpoint store"
                )
            cached.setflags(write=False)
            self._stale = cached
        self.metrics.counter(
            "serve.backend.calls", fidelity=FIDELITY_STALE
        ).inc()
        seconds = self.cached_cost(n_nodes)
        self.metrics.counter(
            "serve.backend.sim_seconds", fidelity=FIDELITY_STALE
        ).inc(seconds)
        return BackendResponse(
            self._rows(self._stale, n_nodes),
            FIDELITY_STALE,
            seconds,
            breakdown={BLAME_STALE_FALLBACK: seconds},
        )
