"""The paper's own system arms, as configurations of the shared engine.

Every arm of Figs. 12–16 is a knob setting of :class:`SpMMEngine` /
:class:`OMeGaEmbedder`; this module names them and runs them uniformly,
handling the expected out-of-memory failures of the DRAM-only systems on
the billion-scale graphs (reported as ``status="oom"`` the way the paper
reports "fails to run").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import (
    AllocationScheme,
    MemoryMode,
    OMeGaConfig,
    PlacementScheme,
)
from repro.core.embedding import EmbeddingResult, OMeGaEmbedder
from repro.faults import FaultInjector, FaultPlan
from repro.graphs.datasets import Dataset
from repro.memsim.numa import CapacityError
from repro.memsim.persistence import CheckpointedEmbedder
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SpanTracer
from repro.prone.model import ProNEParams


@dataclass(frozen=True)
class SystemArm:
    """A named engine configuration."""

    name: str
    config: OMeGaConfig

    def embedder(
        self,
        dataset: Dataset,
        tracer: SpanTracer | None = None,
        metrics: MetricsRegistry | None = None,
        faults: FaultInjector | None = None,
        **overrides: object,
    ) -> OMeGaEmbedder:
        """Instantiate the arm's embedder for a dataset."""
        config = self.config.with_overrides(
            capacity_scale=dataset.scale, **overrides
        )
        return OMeGaEmbedder(
            config, tracer=tracer, metrics=metrics, faults=faults
        )


@dataclass
class SystemResult:
    """Outcome of one (arm, dataset) run.

    ``status`` is ``"ok"``, ``"recovered"`` (completed under a fault
    plan after resuming one or more injected crashes), or ``"oom"``
    (DRAM-only systems on graphs whose working set exceeds capacity —
    the bars the paper omits).
    """

    system: str
    dataset: str
    status: str
    sim_seconds: float
    result: EmbeddingResult | None = None

    @property
    def projected_full_scale_seconds(self) -> float:
        """Simulated time projected to the original graph's scale."""
        return self.sim_seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SystemResult({self.system} on {self.dataset}: {self.status},"
            f" {self.sim_seconds:.4f}s)"
        )


def standard_arms(n_threads: int = 30, dim: int = 32) -> list[SystemArm]:
    """The engine-backed arms of Fig. 12, in the paper's order.

    - **OMeGa**: heterogeneous memory with every optimization;
    - **OMeGa-DRAM**: the ideal all-DRAM baseline (OOMs at billion scale);
    - **OMeGa-PM**: the worst-case all-PM baseline;
    - **ProNE-DRAM**: the original model on DRAM — CSR-era scheduling
      (round-robin threads, OS interleaved placement, no prefetch);
    - **ProNE-HM**: the naive DRAM-PM port — matrices land on PM, no
      prefetching/streaming/placement awareness.
    """
    base = dict(n_threads=n_threads, dim=dim)
    return [
        SystemArm("OMeGa", OMeGaConfig(**base)),
        SystemArm(
            "OMeGa-DRAM",
            OMeGaConfig(
                memory_mode=MemoryMode.DRAM_ONLY,
                streaming_enabled=False,
                **base,
            ),
        ),
        SystemArm(
            "OMeGa-PM",
            OMeGaConfig(
                memory_mode=MemoryMode.PM_ONLY,
                prefetcher_enabled=False,
                streaming_enabled=False,
                **base,
            ),
        ),
        SystemArm(
            "ProNE-DRAM",
            OMeGaConfig(
                memory_mode=MemoryMode.DRAM_ONLY,
                allocation=AllocationScheme.NATURAL_ROUND_ROBIN,
                placement=PlacementScheme.INTERLEAVE,
                prefetcher_enabled=False,
                streaming_enabled=False,
                kernel_slowdown=2.5,
                graph_format="csr",
                **base,
            ),
        ),
        SystemArm(
            "ProNE-HM",
            OMeGaConfig(
                memory_mode=MemoryMode.HETEROGENEOUS,
                allocation=AllocationScheme.NATURAL_ROUND_ROBIN,
                placement=PlacementScheme.INTERLEAVE,
                prefetcher_enabled=False,
                streaming_enabled=False,
                kernel_slowdown=2.5,
                graph_format="csr",
                **base,
            ),
        ),
    ]


def run_arm(
    arm: SystemArm,
    dataset: Dataset,
    params: ProNEParams | None = None,
    tracer: SpanTracer | None = None,
    metrics: MetricsRegistry | None = None,
    faults: "FaultPlan | None" = None,
) -> SystemResult:
    """Run one arm on one dataset, catching the expected OOMs.

    Pass a ``tracer``/``metrics`` pair (e.g. a
    :class:`~repro.obs.export.TelemetrySession`'s) to capture the arm's
    spans and counters alongside its result.

    With a ``faults`` plan the arm runs under injection through the
    stage-checkpointing layer, each arm consuming a *fresh* injector so
    every system faces the identical chaos.  Injected crashes are
    resumed from the last durable checkpoint (repeatedly, if the plan
    arms several) and reported as ``status="recovered"`` — a valid
    completion for speedup purposes, since the resumed run reports the
    uninterrupted run's simulated total.
    """
    injector = None
    metrics_registry = metrics if metrics is not None else MetricsRegistry()
    if faults is not None:
        injector = FaultInjector(faults, metrics_registry)
    embedder = arm.embedder(
        dataset, tracer=tracer, metrics=metrics_registry, faults=injector
    )
    if params is not None:
        if params.dim != embedder.config.dim:
            raise ValueError(
                f"params.dim ({params.dim}) must match arm dim"
                f" ({embedder.config.dim})"
            )
        embedder.params = params
    status = "ok"
    try:
        if faults is None:
            result = embedder.embed_dataset(dataset)
        else:
            crashes = []
            result = CheckpointedEmbedder(embedder).run_to_completion(
                dataset.edges,
                dataset.n_nodes,
                faults=injector,
                on_crash=lambda crash, _resuming: crashes.append(crash),
            )
            if crashes:
                status = "recovered"
    except CapacityError:
        return SystemResult(
            system=arm.name,
            dataset=dataset.name,
            status="oom",
            sim_seconds=float("nan"),
        )
    return SystemResult(
        system=arm.name,
        dataset=dataset.name,
        status=status,
        sim_seconds=result.sim_seconds,
        result=result,
    )


def speedup_table(results: list[SystemResult], reference: str = "OMeGa") -> dict:
    """Per-system speedup of ``reference`` over each other system.

    Systems that OOM'd are skipped (as the paper does); runs that
    recovered from injected crashes count as completions, since resume
    reports the uninterrupted run's simulated total.  Returns
    {system: geometric-mean speedup across datasets}.
    """
    by_system: dict[str, dict[str, float]] = {}
    for res in results:
        by_system.setdefault(res.system, {})[res.dataset] = (
            res.sim_seconds
            if res.status in ("ok", "recovered")
            else float("nan")
        )
    if reference not in by_system:
        raise ValueError(f"no results for reference system {reference!r}")
    ref = by_system[reference]
    table: dict[str, float] = {}
    for system, times in by_system.items():
        if system == reference:
            continue
        ratios = [
            times[ds] / ref[ds]
            for ds in times
            if ds in ref
            and np.isfinite(times[ds])
            and np.isfinite(ref[ds])
            and ref[ds] > 0
        ]
        if ratios:
            table[system] = float(np.exp(np.mean(np.log(ratios))))
    return table
