"""Observability: span tracing, metrics and structured telemetry export.

The simulator's cost ledgers (:mod:`repro.memsim.trace`) answer *how
much* simulated time each operation category consumed; this subpackage
adds the *where* and *when*:

- :mod:`repro.obs.tracer` — nested spans carrying both simulated and
  wall-clock durations, with a context-manager API;
- :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms for non-timing telemetry (WoFP hits, allocated bytes,
  partition entropy, streaming exposure); the one writer and the one
  reader of ``metric`` records, so every view reads them through it;
- :mod:`repro.obs.export` — the :class:`TelemetrySession` bundle (one
  tracer + registry + ledgers + the run's telemetry file) shared by the
  CLI and benches;
- :mod:`repro.obs.live` — the telemetry file itself: its one writer
  (:class:`TelemetryStream`, append-only crash-tolerant JSONL), its one
  loader (:func:`load_records`), the follower and the ``repro top`` ops
  view;
- :mod:`repro.obs.forensics` — per-request tail-latency forensics:
  one causal tree per ``serve_request`` record, critical-path blame
  attribution whose categories sum exactly to the simulated latency,
  bounded exemplar reservoirs and incident linkage (``repro why`` / ``repro
  attribute``);
- :mod:`repro.obs.report` — renders a telemetry file back into the
  Fig. 7(a)-style breakdown tables (``repro report``);
- :mod:`repro.obs.observatory` — cross-run analysis: run manifests,
  telemetry diffing, flamegraph profiles, SLO evaluation, the CI
  perf-regression gate against one pinned baseline file and the
  benchmark trajectory (``repro diff`` / ``profile`` / ``perf-gate`` /
  ``trend``, ``serve-sim --slo``).

A run's one output is its telemetry file; ``repro report`` /
``profile`` / ``top`` / ``why`` / ``attribute`` / ``diff`` are views of
it.
"""

from repro.obs.export import TELEMETRY_VERSION, TelemetrySession
from repro.obs.forensics import (
    ExemplarReservoir,
    ForensicsReport,
    RequestTree,
    fold_stream,
    render_waterfall,
)
from repro.obs.live import (
    StreamFollower,
    TelemetryStream,
    load_records,
    read_stream,
    split_records,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import (
    merged_cost_trace,
    render_report,
    render_report_file,
    spmm_step_breakdown,
)
from repro.obs.observatory import (
    RunManifest,
    SLOSpec,
    build_profile,
    collapsed_stacks,
    diff_runs,
    evaluate_slo,
    hot_spans,
    manifest_from_records,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, SpanTracer

__all__ = [
    "RunManifest",
    "SLOSpec",
    "build_profile",
    "collapsed_stacks",
    "diff_runs",
    "evaluate_slo",
    "hot_spans",
    "manifest_from_records",
    "Counter",
    "DEFAULT_BUCKETS",
    "ExemplarReservoir",
    "ForensicsReport",
    "RequestTree",
    "fold_stream",
    "render_waterfall",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanTracer",
    "StreamFollower",
    "TELEMETRY_VERSION",
    "TelemetrySession",
    "TelemetryStream",
    "load_records",
    "merged_cost_trace",
    "read_stream",
    "render_report",
    "render_report_file",
    "spmm_step_breakdown",
    "split_records",
]
