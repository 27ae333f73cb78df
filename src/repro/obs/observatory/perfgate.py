"""The CI perf-regression gate: a pinned micro-bench suite vs. a baseline.

``repro perf-gate`` runs a small, fully deterministic suite — one
end-to-end embedding, one standalone SpMM and one serve replay, all
seeded, on a tiny R-MAT graph with the capacity scale cranked until the
ASL streaming path engages (so PM-bandwidth effects are visible even at
this size) — and compares the *simulated* stage seconds against the
pinned baseline in the :class:`~repro.obs.observatory.store.BaselineStore`.
Simulated times are pure cost-model arithmetic over fixed inputs, so
they are bit-stable across machines; any drift beyond the threshold is
a genuine cost-model change, and the gate exits nonzero naming the
regressed stage.

On a pass the gate appends one point to the ``BENCH_omega.json``
trajectory, which is how the repo's perf history accumulates commit by
commit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.export import TelemetrySession
from repro.obs.observatory.manifest import (
    RunManifest,
    manifest_from_records,
)
from repro.obs.observatory.store import BaselineStore

#: Name of the pinned baseline ref inside the store.
GATE_BASELINE_NAME = "perf_gate"
#: Default trajectory file, at the repository root.
DEFAULT_TRAJECTORY = (
    Path(__file__).resolve().parents[4] / "BENCH_omega.json"
)

#: Pinned suite parameters — changing any of these invalidates the
#: stored baseline (the config hash in the manifest will differ).
GATE_SCALE = 10
GATE_EDGE_FACTOR = 8.0
GATE_SEED = 0
GATE_THREADS = 4
GATE_DIM = 8
#: Shrinks the simulated tiers until the 2**10-node operand overflows
#: the DRAM streaming budget, so the ASL/PM path is actually exercised.
GATE_CAPACITY_SCALE = 4_000_000
GATE_SERVE_REQUESTS = 200
#: Default regression threshold on simulated stage seconds.
GATE_THRESHOLD = 0.05


@dataclass
class GateRun:
    """One execution of the micro-bench suite."""

    session: TelemetrySession
    stages: dict[str, float]
    #: Per-class tail-latency blame fractions from the serve stage
    #: (``{"interactive/queue": 0.83, ...}``) — published to the
    #: trajectory as ``attribution.*`` series, not gated (the stage
    #: seconds already gate the totals; the mix is for trend plots).
    attribution: dict[str, float] = field(default_factory=dict)

    @property
    def manifest(self) -> RunManifest:
        manifest = manifest_from_records(self.session.records())
        assert manifest is not None
        return manifest

    def payload(self) -> dict[str, Any]:
        """The store/trajectory payload (deterministic fields only)."""
        manifest = self.manifest
        payload: dict[str, Any] = {
            "suite": "perf_gate",
            "config_hash": manifest.config_hash,
            "stages": {k: float(v) for k, v in sorted(self.stages.items())},
        }
        if self.attribution:
            payload["attribution"] = {
                k: float(v) for k, v in sorted(self.attribution.items())
            }
        return payload


def run_suite(
    faults_path: str | Path | None = None,
    telemetry_path: str | Path | None = None,
) -> GateRun:
    """Run the pinned micro-bench suite; returns stages in sim seconds.

    ``faults_path`` loads a :class:`~repro.faults.FaultPlan` into the
    run (the chaos hook the acceptance test uses to derate PM bandwidth
    and watch the gate catch it).  ``telemetry_path`` streams the
    suite's telemetry to a JSONL file while it runs (``repro perf-gate
    --telemetry-out``, which CI uploads); the stream is closed before
    the run returns, so the file is complete.
    """
    import numpy as np

    from repro.core.config import OMeGaConfig
    from repro.core.embedding import OMeGaEmbedder
    from repro.core.spmm import SpMMEngine
    from repro.faults import FaultInjector, FaultPlan
    from repro.formats.convert import edges_to_csdb
    from repro.graphs.rmat import rmat_edges
    from repro.memsim.clock import VirtualClock
    from repro.serve import (
        EmbeddingBackend,
        EmbeddingServer,
        RequestTrace,
        ServePolicy,
    )

    meta = {
        "command": "perf-gate",
        "graph": f"rmat-s{GATE_SCALE}",
        "seed": GATE_SEED,
        "threads": GATE_THREADS,
        "dim": GATE_DIM,
        "capacity_scale": GATE_CAPACITY_SCALE,
        "edge_factor": GATE_EDGE_FACTOR,
    }
    session = TelemetrySession(meta=meta)
    if telemetry_path is not None:
        session.stream_to(telemetry_path)
    plan = FaultPlan.load(faults_path) if faults_path else None

    config = OMeGaConfig(
        n_threads=GATE_THREADS,
        dim=GATE_DIM,
        capacity_scale=GATE_CAPACITY_SCALE,
        seed=GATE_SEED,
    )
    edges = rmat_edges(GATE_SCALE, edge_factor=GATE_EDGE_FACTOR, seed=GATE_SEED)
    n_nodes = 1 << GATE_SCALE
    stages: dict[str, float] = {}

    # 1. End-to-end embedding (fresh injector so derates apply here).
    embedder = OMeGaEmbedder(
        config,
        tracer=session.tracer,
        metrics=session.metrics,
        faults=FaultInjector(plan, session.metrics) if plan else None,
    )
    result = embedder.embed_edges(edges, n_nodes)
    session.add_cost_trace("embed", result.trace)
    stages["embed.graph_read"] = result.read_seconds
    stages["embed.factorization"] = result.factorization_seconds
    stages["embed.propagation"] = result.propagation_seconds
    stages["embed.spmm"] = result.spmm_seconds
    stages["embed.total"] = result.sim_seconds

    # 2. Standalone SpMM over the same operand (cost model only).
    engine = SpMMEngine(
        config,
        tracer=session.tracer,
        metrics=session.metrics,
        faults=FaultInjector(plan, session.metrics) if plan else None,
    )
    matrix = edges_to_csdb(edges, n_nodes)
    dense = np.random.default_rng(GATE_SEED).standard_normal(
        (n_nodes, GATE_DIM)
    )
    with session.tracer.span("spmm_micro"):
        spmm = engine.multiply(matrix, dense, compute=False)
        session.tracer.advance_sim(spmm.sim_seconds)
    session.add_cost_trace("spmm_micro", spmm.trace)
    stages["spmm.total"] = spmm.sim_seconds

    # 3. Serve replay (deterministic trace, no faults: the serve stage
    # gates queueing/backend cost, not chaos behavior).
    serve_embedder = OMeGaEmbedder(config, metrics=session.metrics)
    backend = EmbeddingBackend(
        serve_embedder, edges, n_nodes, metrics=session.metrics
    )
    with session.tracer.span("serve_micro"):
        warmup_s = backend.warm_up()
        per_node = backend.compute_cost(1)
        trace = RequestTrace.synthesize(
            seed=GATE_SEED,
            n_requests=GATE_SERVE_REQUESTS,
            per_node_cost_s=per_node,
        )
        server = EmbeddingServer(
            backend,
            ServePolicy.calibrated(per_node * 8.5),
            clock=VirtualClock(),
            metrics=session.metrics,
        )
        report = server.run_trace(trace)
        session.tracer.advance_sim(report.finished_at_s)
    stages["serve.warmup"] = warmup_s
    stages["serve.p99_latency"] = report.latency_percentile(
        99, ("served", "deadline_exceeded")
    )
    from repro.obs.observatory.diff import extract_attribution_values

    attribution = extract_attribution_values(session.metrics.to_records())
    session.event("perf_gate_stages", **stages)
    session.close_stream()
    return GateRun(session=session, stages=stages, attribution=attribution)


@dataclass
class StageVerdict:
    """Comparison of one stage against the baseline."""

    stage: str
    baseline: float | None
    current: float
    regressed: bool

    @property
    def ratio(self) -> float | None:
        if self.baseline is None or self.baseline == 0.0:
            return None
        return (self.current - self.baseline) / self.baseline


@dataclass
class GateReport:
    """Outcome of one perf-gate run."""

    run: GateRun
    verdicts: list[StageVerdict] = field(default_factory=list)
    baseline_key: str | None = None
    baseline_updated: bool = False
    trajectory_appended: bool = False

    @property
    def regressions(self) -> list[StageVerdict]:
        return [v for v in self.verdicts if v.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_to_baseline(
    run: GateRun,
    baseline: dict[str, Any],
    threshold: float = GATE_THRESHOLD,
) -> list[StageVerdict]:
    """Stage-by-stage verdicts against a stored baseline payload."""
    baseline_stages = baseline.get("stages", {})
    verdicts = []
    for stage, current in sorted(run.stages.items()):
        base = baseline_stages.get(stage)
        regressed = base is not None and current > base * (1.0 + threshold)
        verdicts.append(
            StageVerdict(
                stage=stage,
                baseline=base,
                current=current,
                regressed=regressed,
            )
        )
    return verdicts


def append_trajectory_point(
    path: str | Path, point: dict[str, Any]
) -> None:
    """Append one arbitrary point to a ``BENCH_omega.json`` trajectory.

    The trajectory is a JSON list; gate runs and benchmark results
    (``bench_parallel_scaling``) all append here so the repo's perf
    history accumulates in one place.
    """
    path = Path(path)
    points: list[dict[str, Any]] = []
    if path.is_file():
        loaded = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(loaded, list):
            points = loaded
    points.append(point)
    path.write_text(json.dumps(points, indent=2) + "\n", encoding="utf-8")


def append_trajectory(
    run: GateRun,
    path: str | Path,
    baseline_key: str | None,
    ok: bool,
) -> None:
    """Append one perf-gate point to ``BENCH_omega.json``."""
    manifest = run.manifest
    point: dict[str, Any] = {
        "run_id": manifest.run_id,
        "git_sha": manifest.git_sha,
        "config_hash": manifest.config_hash,
        "baseline_key": baseline_key,
        "ok": ok,
        "stages": {k: float(v) for k, v in sorted(run.stages.items())},
    }
    if run.attribution:
        point["attribution"] = {
            k: float(v) for k, v in sorted(run.attribution.items())
        }
    append_trajectory_point(path, point)


def run_perf_gate(
    store: BaselineStore | None = None,
    threshold: float = GATE_THRESHOLD,
    update_baseline: bool = False,
    faults_path: str | Path | None = None,
    trajectory_path: str | Path | None = None,
    telemetry_path: str | Path | None = None,
) -> GateReport:
    """Run the suite, gate it, and (on success) extend the trajectory.

    With ``update_baseline`` (or when no baseline exists yet and the run
    is clean) the run's stages become the new pinned baseline.  Faulted
    runs never update the baseline or the trajectory — chaos is for
    testing the gate, not for moving the goalposts.
    """
    store = store if store is not None else BaselineStore()
    run = run_suite(faults_path, telemetry_path=telemetry_path)
    report = GateReport(run=run)
    baseline_key = store.resolve(GATE_BASELINE_NAME)
    chaos = faults_path is not None

    if baseline_key is not None:
        baseline = store.get(baseline_key)
        report.baseline_key = baseline_key
        report.verdicts = compare_to_baseline(run, baseline, threshold)
    else:
        report.verdicts = compare_to_baseline(run, {}, threshold)

    if chaos:
        return report

    if update_baseline or (baseline_key is None and report.ok):
        report.baseline_key = store.put(run.payload(), name=GATE_BASELINE_NAME)
        report.baseline_updated = True

    if report.ok and trajectory_path is not None:
        append_trajectory(
            run, trajectory_path, report.baseline_key, ok=True
        )
        report.trajectory_appended = True
    return report


def render_gate(report: GateReport, threshold: float = GATE_THRESHOLD) -> str:
    """Plain-text table of a gate run."""
    from repro.bench.harness import format_seconds, format_table

    rows = []
    for v in report.verdicts:
        ratio = f"{v.ratio * 100:+.2f}%" if v.ratio is not None else "-"
        rows.append(
            [
                v.stage,
                format_seconds(v.baseline) if v.baseline is not None else "-",
                format_seconds(v.current),
                ratio,
                "REGRESSED" if v.regressed else "ok",
            ]
        )
    table = format_table(
        ["stage", "baseline", "current", "delta", "status"],
        rows,
        title=(
            f"perf-gate (threshold {threshold * 100:.0f}%,"
            f" baseline {report.baseline_key or 'none'})"
        ),
    )
    if report.regressions:
        names = ", ".join(v.stage for v in report.regressions)
        verdict = f"PERF GATE FAILED — regressed stages: {names}"
    elif report.baseline_key is None:
        verdict = "no baseline stored; run with --update-baseline to pin one"
    else:
        verdict = "perf gate passed"
    extras = []
    if report.baseline_updated:
        extras.append(f"baseline updated -> {report.baseline_key}")
    if report.trajectory_appended:
        extras.append("trajectory point appended")
    if extras:
        verdict = f"{verdict} ({'; '.join(extras)})"
    return f"{table}\n{verdict}"
