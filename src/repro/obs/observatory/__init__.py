"""The performance observatory: cross-run analysis of telemetry exports.

Single-run telemetry (:mod:`repro.obs`) answers "where did this run's
time go"; the observatory compares runs *over time* — the machinery
that keeps the paper's cross-configuration ratios (Fig. 12/13/16)
honest as the codebase grows:

- :mod:`~repro.obs.observatory.manifest` — run manifests (git SHA,
  config hash, dataset, seed, sim/wall totals) stamped into every
  telemetry export;
- :mod:`~repro.obs.observatory.store` — the content-addressed baseline
  store under ``benchmarks/baselines/`` (immutable objects, movable
  named refs);
- :mod:`~repro.obs.observatory.diff` — per-stage / per-metric deltas
  between two runs with a regression threshold (``repro diff``);
- :mod:`~repro.obs.observatory.profile` — the hierarchical span
  aggregator and collapsed-stack flamegraph export (``repro profile``);
- :mod:`~repro.obs.observatory.slo` — declarative SLOs with
  error-budget burn rates over serve telemetry
  (``repro serve-sim --slo``);
- :mod:`~repro.obs.observatory.perfgate` — the pinned micro-bench
  suite, baseline comparison and ``BENCH_omega.json`` trajectory
  (``repro perf-gate``, run as a CI job);
- :mod:`~repro.obs.observatory.trend` — per-series trajectories with
  sparklines over the accumulated ``BENCH_omega.json`` perf history
  (``repro trend``).

Everything here is pure post-processing of exported JSONL records; no
embedding numerics are touched.
"""

from repro.obs.observatory.diff import (
    DeltaRow,
    DiffReport,
    diff_runs,
    render_diff,
)
from repro.obs.observatory.manifest import (
    RunManifest,
    build_manifest,
    config_hash,
    content_hash,
    git_sha,
    manifest_from_records,
)
from repro.obs.observatory.perfgate import (
    GateReport,
    GateRun,
    append_trajectory_point,
    render_gate,
    run_perf_gate,
    run_suite,
)
from repro.obs.observatory.profile import (
    ProfileNode,
    build_profile,
    collapsed_stacks,
    hot_spans,
    parse_collapsed,
    write_collapsed,
)
from repro.obs.observatory.slo import (
    ObjectiveResult,
    SLOObjective,
    SLOReport,
    SLOSpec,
    evaluate_slo,
    render_slo,
)
from repro.obs.observatory.store import BaselineStore
from repro.obs.observatory.trend import (
    load_trajectory,
    render_trend,
    sparkline,
    trajectory_series,
)

__all__ = [
    "BaselineStore",
    "DeltaRow",
    "DiffReport",
    "GateReport",
    "GateRun",
    "ObjectiveResult",
    "ProfileNode",
    "RunManifest",
    "SLOObjective",
    "SLOReport",
    "SLOSpec",
    "append_trajectory_point",
    "build_manifest",
    "build_profile",
    "collapsed_stacks",
    "config_hash",
    "content_hash",
    "diff_runs",
    "evaluate_slo",
    "git_sha",
    "hot_spans",
    "load_trajectory",
    "manifest_from_records",
    "parse_collapsed",
    "render_diff",
    "render_gate",
    "render_slo",
    "render_trend",
    "run_perf_gate",
    "run_suite",
    "sparkline",
    "trajectory_series",
    "write_collapsed",
]
