"""The CI perf-regression gate: a pinned micro-bench suite vs. a baseline.

``repro perf-gate`` runs a small, fully deterministic suite — one
end-to-end embedding, one standalone SpMM and one serve replay, all
seeded, on a tiny R-MAT graph with the capacity scale cranked until the
ASL streaming path engages (so PM-bandwidth effects are visible even at
this size) — and compares the *simulated* stage seconds against the
pinned baseline, the committed ``benchmarks/perf_gate_baseline.json``,
with ``repro diff``'s one regression rule
(:func:`~repro.obs.observatory.diff.diff_series`).  Simulated times are
pure cost-model arithmetic over fixed inputs, so they are bit-stable
across machines; any drift beyond the threshold (or a stage that is not
a finite number) is a genuine cost-model change, and the gate exits
nonzero naming the regressed stage.

The gate prints its verdict and writes nothing else unless asked:
``--update-baseline`` re-pins the baseline, and ``--telemetry-out``
writes the run's one telemetry file, which ``repro profile`` renders as
collapsed stacks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.export import TelemetrySession
from repro.obs.observatory.diff import (
    GROUP_STAGES,
    REGRESSION_THRESHOLD,
    STATUS_REGRESSED,
    DeltaRow,
    check_threshold,
    diff_series,
    threshold_label,
)
from repro.obs.observatory.manifest import (
    RunManifest,
    manifest_from_records,
)

_REPO_ROOT = Path(__file__).resolve().parents[4]
#: The pinned baseline, committed with the code it gates.
DEFAULT_BASELINE = _REPO_ROOT / "benchmarks" / "perf_gate_baseline.json"

#: Pinned suite parameters — changing any of these invalidates the
#: pinned baseline (the config hash in the manifest will differ).
GATE_SCALE = 10
GATE_EDGE_FACTOR = 8.0
GATE_SEED = 0
GATE_THREADS = 4
GATE_DIM = 8
#: Shrinks the simulated tiers until the 2**10-node operand overflows
#: the DRAM streaming budget, so the ASL/PM path is actually exercised.
GATE_CAPACITY_SCALE = 4_000_000
GATE_SERVE_REQUESTS = 200


@dataclass
class GateRun:
    """One execution of the micro-bench suite."""

    session: TelemetrySession
    stages: dict[str, float]

    @property
    def manifest(self) -> RunManifest:
        manifest = manifest_from_records(self.session.records())
        assert manifest is not None
        return manifest

    def payload(self) -> dict[str, Any]:
        """The baseline payload (deterministic fields only)."""
        return {
            "suite": "perf_gate",
            "config_hash": self.manifest.config_hash,
            "stages": {k: float(v) for k, v in sorted(self.stages.items())},
        }


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
    session.event("perf_gate_stages", **stages)
    session.close_stream()
    return GateRun(session=session, stages=stages)


@dataclass
class GateReport:
    """Outcome of one perf-gate run: a diff row per stage of the run."""

    run: GateRun
    threshold: float
    rows: list[DeltaRow] = field(default_factory=list)
    #: The pinned baseline file, when one exists or this run wrote it.
    baseline_path: Path | None = None
    baseline_updated: bool = False

    @property
    def regressions(self) -> list[DeltaRow]:
        return [r for r in self.rows if r.status == STATUS_REGRESSED]

    @property
    def ok(self) -> bool:
        return not self.regressions


def gate_rows(
    stages: dict[str, float], baseline: dict[str, Any], threshold: float
) -> list[DeltaRow]:
    """The run's stages against a baseline payload, one row each; a
    baseline stage the run lacks is not listed."""
    pinned = baseline.get("stages", {})
    return diff_series(
        GROUP_STAGES,
        {stage: pinned[stage] for stage in stages if stage in pinned},
        stages,
        threshold,
        gated=True,
    )


def read_baseline(path: Path, run: GateRun) -> dict[str, Any]:
    """The baseline at ``path``; ``ValueError`` naming it unless it can
    gate ``run`` (a JSON object of finite ``stages`` seconds, pinned
    under the run's ``config_hash``, covering every stage the run has).
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        payload = None
    stages = payload.get("stages") if isinstance(payload, dict) else None
    if not isinstance(stages, dict) or not all(
        type(v) in (int, float) and math.isfinite(v) for v in stages.values()
    ):
        problem = "not a JSON object with a `stages` object of finite numbers"
    elif payload.get("config_hash") != run.manifest.config_hash:
        problem = (
            f"config_hash {payload.get('config_hash')!r} is not this"
            f" run's {run.manifest.config_hash!r}"
        )
    elif missing := sorted(set(run.stages) - set(stages)):
        problem = f"no baseline for stage(s) {', '.join(missing)}"
    else:
        return payload
    raise ValueError(
        f"{path}: {problem}; re-pin with `repro perf-gate --update-baseline`"
    )


def run_perf_gate(
    baseline_path: str | Path = DEFAULT_BASELINE,
    threshold: float = REGRESSION_THRESHOLD,
    update_baseline: bool = False,
    faults_path: str | Path | None = None,
    telemetry_path: str | Path | None = None,
) -> GateReport:
    """Run the suite and gate it against the pinned baseline.

    With ``update_baseline`` (or when ``baseline_path`` does not exist
    yet and the run is clean) the run's stages become the new pinned
    baseline; otherwise a baseline :func:`read_baseline` refuses raises.
    Faulted runs never write the baseline — chaos is for testing the
    gate, not for moving the goalposts.
    """
    path = Path(baseline_path)
    check_threshold(threshold)
    run = run_suite(faults_path, telemetry_path=telemetry_path)
    report = GateReport(run=run, threshold=threshold)
    baseline: dict[str, Any] = {}
    if path.is_file():
        report.baseline_path = path
        try:
            baseline = read_baseline(path, run)
        except ValueError:
            if not update_baseline:
                raise
    report.rows = gate_rows(run.stages, baseline, threshold)

    if faults_path is not None:
        return report

    if update_baseline or (not path.exists() and report.ok):
        path.write_text(
            json.dumps(run.payload(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        report.baseline_path = path
        report.baseline_updated = True
    return report


def render_gate(report: GateReport) -> str:
    """Plain-text table of a gate run."""
    from repro.bench.harness import format_seconds, format_table

    pinned = report.baseline_path
    rows = []
    for r in report.rows:
        ratio = f"{r.ratio * 100:+.2f}%" if r.ratio is not None else "-"
        rows.append(
            [
                r.name,
                format_seconds(r.a) if r.a is not None else "-",
                format_seconds(r.b),
                ratio,
                "REGRESSED" if r.status == STATUS_REGRESSED else "ok",
            ]
        )
    table = format_table(
        ["stage", "baseline", "current", "delta", "status"],
        rows,
        title=(
            f"perf-gate ({threshold_label(report.threshold)},"
            f" baseline {pinned.name if pinned else 'none'})"
        ),
    )
    if report.regressions:
        names = ", ".join(r.name for r in report.regressions)
        verdict = f"PERF GATE FAILED — regressed stages: {names}"
    elif pinned is None:
        verdict = "no baseline pinned; run with --update-baseline to pin one"
    else:
        verdict = "perf gate passed"
    if report.baseline_updated:
        verdict = f"{verdict} (baseline written to {pinned})"
    return f"{table}\n{verdict}"
