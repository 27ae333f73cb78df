"""End-to-end OMeGa embedding pipeline (Fig. 4 of the paper).

``OMeGaEmbedder`` runs ProNE with every sparse product routed through the
instrumented :class:`repro.core.spmm.SpMMEngine`, accumulating simulated
time on the run's one ledger, its :class:`PipelineState`, for:

- the graph reading procedure (CSDB construction; Fig. 19a);
- every SpMM of the tSVD bootstrap and the Chebyshev propagation;
- the serial dense algebra (QR / small SVD), charged to the CPU model;
- ASL staging, prefetch maintenance and NaDP merges (inside the engine).

The numeric output is *identical* across memory modes and optimization
knobs — OMeGa's optimizations are placement and scheduling only — which
tests assert explicitly (quality preservation, §IV-B).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import OMeGaConfig
from repro.core.nadp import TierFallback, plan_tier_fallback
from repro.core.spmm import SpMMEngine, SpMMResult
from repro.faults import FaultError, FaultInjector
from repro.formats.convert import edges_to_csdb
from repro.formats.csdb import CSDBMatrix
from repro.graphs.datasets import Dataset
from repro.memsim.devices import (
    AccessPattern,
    Locality,
    MemoryKind,
    Operation,
)
from repro.memsim.trace import SPMM_CATEGORIES, CostTrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, SpanTracer
from repro.prone.model import (
    ProNEParams,
    prone_propagate,
    prone_smf,
)

#: Approximate bytes per edge of a SNAP-style text edge list (two ids,
#: separator, newline), used to cost the read of the on-disk graph.
TEXT_BYTES_PER_EDGE = 14.0

#: The pipeline's checkpointable stages, in execution order.
STAGE_GRAPH_READ = "graph_read"
STAGE_FACTORIZATION = "factorization"
STAGE_PROPAGATION = "propagation"
PIPELINE_STAGES = (
    STAGE_GRAPH_READ,
    STAGE_FACTORIZATION,
    STAGE_PROPAGATION,
)


@dataclass
class EmbeddingResult:
    """Outcome of one end-to-end embedding run.

    Attributes:
        embedding: the (|V|, d) node embedding.
        sim_seconds: simulated end-to-end time (reading + generation),
            the quantity Fig. 12 reports.
        read_seconds: simulated graph-reading time (Fig. 19a).
        factorization_seconds: simulated time of the tSVD bootstrap.
        propagation_seconds: simulated time of the spectral propagation.
        spmm_seconds: simulated time spent inside SpMM operations.
        serial_seconds: simulated time of serial dense algebra.
        n_spmm: number of SpMM operations executed.
        wall_seconds: real wall-clock time of the run (for the harness).
        trace: merged per-category cost ledger.
        checkpoint_seconds: simulated PM persistence the run's WAL
            appends billed (:class:`~repro.memsim.CheckpointedEmbedder`;
            0.0 for a plain run).  Not part of ``sim_seconds``.
        spmm_results: the individual engine results (thread times,
            partitions, plans, ledgers) with ``output=None``: a product's
            output belongs to the pipeline step that asked for it, which
            may overwrite it in place, so it is neither kept alive nor
            readable here.
    """

    embedding: np.ndarray
    sim_seconds: float
    read_seconds: float
    factorization_seconds: float
    propagation_seconds: float
    spmm_seconds: float
    serial_seconds: float
    n_spmm: int
    wall_seconds: float
    trace: CostTrace
    spmm_results: list[SpMMResult] = field(default_factory=list)
    checkpoint_seconds: float = 0.0

    @property
    def spmm_fraction(self) -> float:
        """Share of simulated time spent in SpMM (the paper's ~70%)."""
        if self.sim_seconds == 0.0:
            return 0.0
        return self.spmm_seconds / self.sim_seconds


@dataclass
class PipelineState:
    """Checkpointable state of one embed run, and its only cost ledger.

    A stage-granular checkpoint is exactly one of these: the last
    completed stage, the numeric intermediates needed to continue
    (``initial`` after factorization, ``embedding`` after propagation)
    and the simulated seconds the run has accumulated.  The embedder
    charges them here as they accrue, and a resumed run adopts the
    recovered state itself, so it reports the same totals — and the
    same bits — as an uninterrupted one.
    """

    stage: str | None = None
    read_seconds: float = 0.0
    factorization_seconds: float = 0.0
    propagation_seconds: float = 0.0
    spmm_seconds: float = 0.0
    serial_seconds: float = 0.0
    n_spmm: int = 0
    trace: CostTrace = field(default_factory=CostTrace)
    initial: np.ndarray | None = None
    embedding: np.ndarray | None = None

    @property
    def completed_stages(self) -> tuple[str, ...]:
        """Stages already durable, in execution order."""
        if self.stage is None:
            return ()
        return PIPELINE_STAGES[: PIPELINE_STAGES.index(self.stage) + 1]

    @property
    def sim_seconds(self) -> float:
        """Simulated seconds accumulated so far, summed in the order the
        result's ``sim_seconds`` is (reading, then generation)."""
        return self.read_seconds + (self.spmm_seconds + self.serial_seconds)

    def to_payload(self) -> tuple[dict[str, np.ndarray], dict]:
        """Split into (arrays, JSON-able metadata) for a WAL record."""
        arrays = {}
        if self.initial is not None:
            arrays["initial"] = self.initial
        if self.embedding is not None:
            arrays["embedding"] = self.embedding
        meta = {
            "stage": self.stage,
            "read_seconds": self.read_seconds,
            "factorization_seconds": self.factorization_seconds,
            "propagation_seconds": self.propagation_seconds,
            "spmm_seconds": self.spmm_seconds,
            "serial_seconds": self.serial_seconds,
            "n_spmm": self.n_spmm,
            "trace_payload": self.trace.to_dict(),
        }
        return arrays, meta

    @classmethod
    def from_payload(
        cls, arrays: dict[str, np.ndarray], meta: dict
    ) -> "PipelineState":
        """Rebuild the state a WAL record captured."""
        return cls(
            stage=meta["stage"],
            read_seconds=meta["read_seconds"],
            factorization_seconds=meta["factorization_seconds"],
            propagation_seconds=meta["propagation_seconds"],
            spmm_seconds=meta["spmm_seconds"],
            serial_seconds=meta["serial_seconds"],
            n_spmm=meta["n_spmm"],
            trace=CostTrace.from_dict(meta["trace_payload"]),
            initial=arrays.get("initial"),
            embedding=arrays.get("embedding"),
        )


class _InstrumentedMatMul:
    """Adapter routing ProNE's products through the engine.

    The product's output is handed to the caller, who owns it and may
    overwrite it; the recorded result keeps everything but the output.
    """

    def __init__(self, embedder: "OMeGaEmbedder", matrix: CSDBMatrix) -> None:
        self.embedder = embedder
        self.matrix = matrix

    def __call__(self, dense: np.ndarray) -> np.ndarray:
        result = self.embedder.engine.multiply(self.matrix, dense)
        output, result.output = result.output, None
        self.embedder._record_spmm(result)
        return output


class OMeGaEmbedder:
    """ProNE on simulated heterogeneous memory."""

    def __init__(
        self,
        config: OMeGaConfig | None = None,
        params: ProNEParams | None = None,
        tracer: SpanTracer | None = None,
        metrics: MetricsRegistry | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.config = config or OMeGaConfig()
        self.params = params or ProNEParams(
            dim=self.config.dim, seed=self.config.seed
        )
        if self.params.dim != self.config.dim:
            raise ValueError(
                f"config.dim ({self.config.dim}) and params.dim"
                f" ({self.params.dim}) disagree"
            )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.faults = faults
        self.engine = SpMMEngine(
            self.config, tracer=self.tracer, metrics=self.metrics,
            faults=self.faults,
        )
        self._spmm_results: list[SpMMResult] = []
        self.state = PipelineState()

    # -- bookkeeping -------------------------------------------------------

    def _reset(self, state: PipelineState | None = None) -> PipelineState:
        """Adopt a recovered run's ``state`` or start a fresh ledger."""
        self._spmm_results = []
        self.state = state if state is not None else PipelineState()
        return self.state

    def _record_spmm(self, result: SpMMResult) -> None:
        self._spmm_results.append(result)
        self.state.spmm_seconds += result.sim_seconds
        self.state.n_spmm += 1
        self.state.trace.merge(result.trace)

    def _charge_serial(self, flops: float, category: str) -> None:
        # Dense BLAS (QR / small SVD) runs multithreaded in practice;
        # charge the flops across the configured thread count.
        seconds = self.engine.cost_model.compute_time(
            flops / self.config.n_threads
        )
        self.state.serial_seconds += seconds
        self.state.trace.charge(category, seconds)
        self.tracer.advance_sim(seconds)

    def _matmul_factory(self, matrix: CSDBMatrix):
        return _InstrumentedMatMul(self, matrix)

    # -- pipeline stages -----------------------------------------------------

    def simulate_graph_read(self, n_nodes: int, n_edges: int) -> float:
        """Simulated cost of the graph reading procedure into CSDB.

        Reading = SSD scan of the text edge list + parse compute + the
        format build.  CSDB builds with a degree-bucket counting sort
        whose placement passes are *sequential*; CSR's classic
        scatter-into-rows build issues per-edge *random* writes — the
        source of the 1.35x reading gap of Fig. 19a (see
        :func:`simulate_graph_read_csr`).
        """
        return self._read_cost(n_nodes, n_edges, AccessPattern.SEQUENTIAL)

    def simulate_graph_read_csr(self, n_nodes: int, n_edges: int) -> float:
        """Simulated cost of reading the same graph into CSR."""
        return self._read_cost(n_nodes, n_edges, AccessPattern.RANDOM)

    def _read_cost(
        self, n_nodes: int, n_edges: int, placement_pattern: AccessPattern
    ) -> float:
        cost_model = self.engine.cost_model
        ssd = self.config.topology.device(MemoryKind.SSD)
        dram = self.config.topology.device(MemoryKind.DRAM)
        text_bytes = 2.0 * n_edges * TEXT_BYTES_PER_EDGE  # both directions
        scan = cost_model.access_time(
            ssd,
            Operation.READ,
            AccessPattern.SEQUENTIAL,
            Locality.LOCAL,
            text_bytes,
        )
        parse = cost_model.compute_time(2.0 * n_edges * 20.0)
        edge_bytes = 2.0 * n_edges * 12.0
        place = cost_model.access_time(
            dram,
            Operation.WRITE,
            placement_pattern,
            Locality.LOCAL,
            edge_bytes,
            threads_sharing=max(self.config.n_threads // 2, 1),
        )
        return scan + parse + place

    def pipeline_working_set_bytes(self, n_nodes: int, n_edges: int) -> float:
        """Peak DRAM-resident bytes of the ProNE pipeline (Eq. 8 terms).

        The paper's tSVD and Chebyshev stages hold several (|V|, k) dense
        temporaries simultaneously (Lx0/Lx1/Lx2 + conv + the operand and
        result); we count six, plus the sparse operators (the smf matrix,
        its transpose, and the Chebyshev operator roughly triple the raw
        adjacency footprint).  The six is the modelled pipeline's, an
        input of the simulated cost model, not a measurement of this
        process: the in-place recurrence of :mod:`repro.prone.chebyshev`
        peaks at seven (|V|, d) blocks (x, lx0, lx1, conv, one scratch,
        a product's operand and its output; the allocating form it
        replaced peaked at eight).
        """
        k = self.params.dim + self.params.n_oversamples
        dense = 6.0 * n_nodes * k * 8.0
        sparse = 3.0 * (2.0 * n_edges * 12.0 + 64.0)
        return dense + sparse

    # -- main entry ----------------------------------------------------------

    def embed_dataset(self, dataset: Dataset) -> EmbeddingResult:
        """Embed a loaded dataset, matching the capacity scale to it."""
        if self.config.capacity_scale != dataset.scale:
            raise ValueError(
                f"config.capacity_scale ({self.config.capacity_scale}) must"
                f" equal dataset.scale ({dataset.scale}); build the config"
                " with capacity_scale=dataset.scale"
            )
        return self.embed_edges(dataset.edges, dataset.n_nodes)

    def embed_edges(self, edges: np.ndarray, n_nodes: int) -> EmbeddingResult:
        """Embed a graph given as an undirected edge list."""
        adjacency = edges_to_csdb(edges, n_nodes)
        return self.embed(adjacency, n_edges=len(edges))

    def embed(
        self, adjacency: CSDBMatrix, n_edges: int | None = None
    ) -> EmbeddingResult:
        """Embed a graph given its CSDB adjacency matrix.

        Raises:
            repro.memsim.CapacityError: in DRAM-only mode when
                the pipeline working set exceeds the scaled DRAM capacity
                (the OOMs of Fig. 12 on TW-2010/FR).
        """
        run = self.start_run(adjacency, n_edges)
        try:
            while run.next_stage is not None:
                run.run_next()
        except BaseException:
            run.abort()
            raise
        return run.finish()

    def propagate_only(
        self, adjacency: CSDBMatrix, initial: np.ndarray | None = None
    ) -> tuple[np.ndarray, float]:
        """Spectral-propagation-only embedding (a degraded-fidelity run).

        Skips the tSVD bootstrap: propagates ``initial`` (by default a
        seeded Gaussian scaled by sqrt(degree), the cheap structural
        prior) through the Chebyshev filter.  This is the serving
        ladder's middle rung — roughly the propagation stage's share of
        the full pipeline cost, with correspondingly lower embedding
        quality.  Returns ``(embedding, sim_seconds)``.
        """
        self._reset()
        n_nodes = adjacency.n_rows
        if initial is None:
            rng = np.random.default_rng(self.params.seed)
            initial = rng.standard_normal((n_nodes, self.params.dim))
            initial *= np.sqrt(adjacency.col_degrees() + 1.0)[:, None]
        with self.tracer.span("propagate_only", n_nodes=n_nodes):
            embedding = prone_propagate(
                adjacency, initial, self.params, self._matmul_factory,
                tracer=self.tracer,
            )
            self._charge_serial(
                2.0 * n_nodes * self.params.dim * self.params.dim,
                "dense_algebra",
            )
        return embedding, self._stage_seconds()

    def start_run(
        self,
        adjacency: CSDBMatrix,
        n_edges: int | None = None,
        state: PipelineState | None = None,
    ) -> "PipelineRun":
        """Begin a stage-by-stage pipeline run (see :class:`PipelineRun`).

        Pass a recovered :class:`PipelineState` to resume after a crash:
        completed stages are skipped, their cost restored, and the final
        embedding is bit-identical to an uninterrupted run.
        """
        return PipelineRun(self, adjacency, n_edges=n_edges, state=state)

    def degrade_tier(self, working_set_bytes: float) -> TierFallback:
        """Re-place hot structures after a PM-tier fault.

        Walks NaDP's fallback order (local DRAM → remote DRAM → re-plan
        ASL with more partitions) and rebuilds the engine under the
        chosen overrides instead of aborting the pipeline.  Numerics are
        unaffected — placement is cost-only — so quality preservation
        holds even degraded.
        """
        fallback = plan_tier_fallback(
            working_set_bytes,
            self.engine.scaled_capacity(MemoryKind.DRAM),
            self.config.topology.n_sockets,
            self.config.dram_headroom,
        )
        self.config = self.config.with_overrides(**fallback.config_overrides)
        self.engine = SpMMEngine(
            self.config, tracer=self.tracer, metrics=self.metrics,
            faults=self.faults,
        )
        self.metrics.counter(
            "nadp.degraded_placements", action=fallback.action
        ).inc()
        self.tracer.record("tier_degraded", action=fallback.action)
        return fallback

    def _stage_seconds(self) -> float:
        return self.state.spmm_seconds + self.state.serial_seconds


class PipelineRun:
    """Stage-by-stage execution of the embedding pipeline.

    ``embed()`` drives a run to completion in one call; the
    checkpointing layer (:class:`repro.memsim.persistence.
    CheckpointedEmbedder`) takes control between stages instead — to
    append WAL records, honour injected crash points, or degrade
    placement.  A run created with a recovered :class:`PipelineState`
    adopts it as the embedder's ledger, skips the completed stages and
    replays their simulated time onto the tracer as one
    ``recovered_stages`` span.
    """

    def __init__(
        self,
        embedder: OMeGaEmbedder,
        adjacency: CSDBMatrix,
        n_edges: int | None = None,
        state: PipelineState | None = None,
    ) -> None:
        self.embedder = embedder
        self.adjacency = adjacency
        n_nodes = adjacency.n_rows
        rank = embedder.params.dim + embedder.params.n_oversamples
        if rank > n_nodes:
            raise ValueError(
                f"dim + oversamples ({rank}) exceeds the node count"
                f" ({n_nodes}); reduce dim or use a larger graph"
            )
        self.n_edges = n_edges if n_edges is not None else adjacency.nnz // 2
        self.state = embedder._reset(state)
        embedder.engine.check_dram_residency(
            embedder.pipeline_working_set_bytes(n_nodes, self.n_edges)
        )
        self._wall_start = time.perf_counter()
        self._closed = False
        self._root_cm = embedder.tracer.span(
            "embed",
            n_nodes=n_nodes,
            n_edges=self.n_edges,
            mode=embedder.config.memory_mode.value,
        )
        self._root = self._root_cm.__enter__()
        if self.state.stage is not None:
            # Replay the completed stages' simulated time onto the
            # tracer so the root span still covers the full pipeline.
            embedder.tracer.record(
                "recovered_stages",
                sim_seconds=self.state.sim_seconds,
                advance=True,
                stages=list(self.state.completed_stages),
            )
            self._root.set("resumed_from", self.state.stage)

    @property
    def next_stage(self) -> str | None:
        """The stage ``run_next`` would execute, or None when done."""
        if self.state.stage is None:
            return PIPELINE_STAGES[0]
        index = PIPELINE_STAGES.index(self.state.stage) + 1
        return PIPELINE_STAGES[index] if index < len(PIPELINE_STAGES) else None

    def run_next(self) -> str:
        """Execute the next pipeline stage; returns its name."""
        stage = self.next_stage
        if stage is None:
            raise RuntimeError("pipeline already complete")
        embedder = self.embedder
        if embedder.faults is not None:
            if embedder.faults.take("tier_loss", stage) is not None:
                embedder.degrade_tier(
                    embedder.pipeline_working_set_bytes(
                        self.adjacency.n_rows, self.n_edges
                    )
                )
        if stage == STAGE_GRAPH_READ:
            self._run_graph_read()
        elif stage == STAGE_FACTORIZATION:
            self._run_factorization()
        else:
            self._run_propagation()
        self.state.stage = stage
        return stage

    def _run_graph_read(self) -> None:
        embedder = self.embedder
        n_nodes = self.adjacency.n_rows
        with embedder.tracer.span(
            "graph_read", format=embedder.config.graph_format
        ):
            if embedder.config.graph_format == "csr":
                read_seconds = embedder.simulate_graph_read_csr(
                    n_nodes, self.n_edges
                )
            else:
                read_seconds = embedder.simulate_graph_read(
                    n_nodes, self.n_edges
                )
            embedder.tracer.advance_sim(read_seconds)
        self.state.trace.charge("graph_read", read_seconds)
        self.state.read_seconds = read_seconds

    def _run_factorization(self) -> None:
        embedder = self.embedder
        n_nodes = self.adjacency.n_rows
        stage_mark = embedder._stage_seconds()
        with embedder.tracer.span("factorization"):
            initial = prone_smf(
                self.adjacency, embedder.params, embedder._matmul_factory,
                tracer=embedder.tracer,
            )
            k = embedder.params.dim + embedder.params.n_oversamples
            # QR factorizations inside the tSVD + the small SVD.  The
            # charge models the paper's QRs, not the host's Cholesky QR
            # bases, so no simulated second moves with them (DESIGN §6g).
            embedder._charge_serial(
                (2 * embedder.params.n_power_iterations + 2)
                * 2.0 * n_nodes * k * k,
                "dense_algebra",
            )
        self.state.initial = initial
        self.state.factorization_seconds = (
            embedder._stage_seconds() - stage_mark
        )

    def _run_propagation(self) -> None:
        embedder = self.embedder
        n_nodes = self.adjacency.n_rows
        if self.state.initial is None:
            raise RuntimeError(
                "propagation needs the factorization stage's output;"
                " the recovered state is missing 'initial'"
            )
        stage_mark = embedder._stage_seconds()
        with embedder.tracer.span("propagation"):
            embedding = prone_propagate(
                self.adjacency, self.state.initial, embedder.params,
                embedder._matmul_factory, tracer=embedder.tracer,
            )
            embedder._charge_serial(
                2.0 * n_nodes * embedder.params.dim * embedder.params.dim,
                "dense_algebra",
            )
        self.state.embedding = embedding
        # Spent: the propagation record commits the embedding alone.
        self.state.initial = None
        self.state.propagation_seconds = (
            embedder._stage_seconds() - stage_mark
        )

    def finish(self) -> EmbeddingResult:
        """Close the run and assemble the :class:`EmbeddingResult`."""
        if self.next_stage is not None:
            raise RuntimeError(
                f"pipeline incomplete: stage {self.next_stage!r} not run"
            )
        if self._closed:
            raise RuntimeError("run already closed")
        embedder = self.embedder
        state = self.state
        sim_seconds = state.sim_seconds
        # Summary spans: the Fig. 7(a) per-step SpMM totals, exact
        # copies of the merged CostTrace (annotations, so the sim
        # cursor — already advanced by the engine — is untouched).
        with embedder.tracer.span("spmm_steps"):
            for category in SPMM_CATEGORIES:
                embedder.tracer.record(
                    category,
                    sim_seconds=state.trace.seconds(category),
                    nbytes=state.trace.bytes_moved(category),
                )
        self._root.set("sim_seconds", sim_seconds)
        self._root.set("n_spmm", state.n_spmm)
        self._closed = True
        self._root_cm.__exit__(None, None, None)
        embedder.metrics.counter("embed.runs").inc()
        embedder.metrics.counter("embed.sim_seconds").inc(sim_seconds)
        return EmbeddingResult(
            embedding=state.embedding,
            sim_seconds=sim_seconds,
            read_seconds=state.read_seconds,
            factorization_seconds=state.factorization_seconds,
            propagation_seconds=state.propagation_seconds,
            spmm_seconds=state.spmm_seconds,
            serial_seconds=state.serial_seconds,
            n_spmm=state.n_spmm,
            wall_seconds=time.perf_counter() - self._wall_start,
            trace=state.trace,
            spmm_results=embedder._spmm_results,
        )

    def abort(self) -> None:
        """Close the root span after an interruption (e.g. a crash)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._root_cm.__exit__(
                FaultError, FaultError("pipeline run aborted"), None
            )
        except FaultError:
            pass


def embedder_for_dataset(
    dataset: Dataset, config: OMeGaConfig | None = None, **overrides: object
) -> OMeGaEmbedder:
    """Build an embedder whose capacity scale matches a dataset."""
    config = config or OMeGaConfig()
    config = config.with_overrides(capacity_scale=dataset.scale, **overrides)
    return OMeGaEmbedder(config)
