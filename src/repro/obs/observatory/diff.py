"""Telemetry diffing: per-stage and per-metric deltas between two runs.

``repro diff <run_a> <run_b>`` compares two telemetry exports
(``--telemetry-out`` JSONL files) series by series:

- **stages** — simulated seconds aggregated per span name (the
  pipeline stages: ``graph_read``, ``factorization``, ``propagation``,
  …), where *more time is worse*;
- **costs** — the merged :class:`~repro.memsim.trace.CostTrace`
  categories (the Fig. 7(a) steps plus auxiliary costs), also
  time-like;
- **metrics** — counters and gauges, reported for context but never
  gated (the diff cannot know which direction is good).

A time-like series regresses when ``b > a * (1 + threshold)`` or when
``a`` or ``b`` is not finite; the report collects every breach so the CLI can
exit nonzero and *name* the regressed stage, which is what keeps the
paper's cross-configuration ratios honest as the code evolves.
:func:`diff_series` is that rule, written once: ``repro perf-gate``
judges its stages with it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.obs.forensics.blame import blame_fractions, merge_blame
from repro.obs.metrics import Histogram, MetricsRegistry, full_name
from repro.obs.observatory.manifest import RunManifest, manifest_from_records

#: The default regression threshold of both gates (``repro diff`` and
#: ``repro perf-gate``): a gated series may grow by this fraction.
REGRESSION_THRESHOLD = 0.05

#: Series groups a diff covers, in render order.
GROUP_STAGES = "stage"
GROUP_COSTS = "cost"
GROUP_PROFILE = "profile"
GROUP_PLACEMENT = "placement"
GROUP_ATTRIBUTION = "attribution"
GROUP_METRICS = "metric"

#: Row statuses.
STATUS_REGRESSED = "regressed"
STATUS_IMPROVED = "improved"
STATUS_UNCHANGED = "unchanged"
STATUS_ADDED = "added"
STATUS_REMOVED = "removed"


@dataclass(frozen=True)
class DeltaRow:
    """One compared series."""

    group: str
    name: str
    a: float | None
    b: float | None
    status: str

    @property
    def delta(self) -> float | None:
        """Absolute change b - a (None when either side is missing)."""
        if self.a is None or self.b is None:
            return None
        return self.b - self.a

    @property
    def ratio(self) -> float | None:
        """Relative change (b - a) / a (None when undefined)."""
        if self.a is None or self.b is None or self.a == 0.0:
            return None
        return (self.b - self.a) / self.a


@dataclass
class DiffReport:
    """Everything one diff produced."""

    rows: list[DeltaRow] = field(default_factory=list)
    threshold: float = REGRESSION_THRESHOLD
    manifest_a: RunManifest | None = None
    manifest_b: RunManifest | None = None

    @property
    def regressions(self) -> list[DeltaRow]:
        """Rows that breached the regression threshold."""
        return [r for r in self.rows if r.status == STATUS_REGRESSED]

    @property
    def comparable(self) -> bool:
        """Do the two runs share a configuration (when both manifests exist)?"""
        if self.manifest_a is None or self.manifest_b is None:
            return True
        return self.manifest_a.config_hash == self.manifest_b.config_hash


def extract_stage_seconds(
    records: list[dict[str, Any]],
) -> dict[str, float]:
    """Simulated seconds per span name, aggregated over the export."""
    out: dict[str, float] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        name = record.get("name")
        if not isinstance(name, str):
            continue
        out[name] = out.get(name, 0.0) + float(
            record.get("sim_seconds", 0.0) or 0.0
        )
    return out


def extract_cost_seconds(records: list[dict[str, Any]]) -> dict[str, float]:
    """Merged cost-ledger seconds per category."""
    from repro.obs.report import merged_cost_trace

    return {
        category: seconds
        for category, seconds in merged_cost_trace(records)
        .breakdown()
        .items()
        if seconds > 0.0
    }


def extract_profile_self_seconds(
    records: list[dict[str, Any]],
) -> dict[str, float]:
    """Per-node simulated *self* seconds keyed by profile path.

    Folds the export's spans through
    :func:`~repro.obs.observatory.profile.build_profile` so the diff
    sees hierarchical hot spots (``embed;factorization;spmm``) rather
    than flat per-name aggregates — the ``repro diff --profile`` view.
    Nodes with zero self time on both sides carry no signal and are
    dropped by the caller's set union.
    """
    from repro.obs.observatory.profile import ROOT_NAME, build_profile

    profile = build_profile(
        [r for r in records if r.get("type") == "span"]
    )
    out: dict[str, float] = {}
    for node in profile.walk():
        if node.path == (ROOT_NAME,):
            continue
        if node.sim_self > 0.0:
            out[";".join(node.path[1:])] = node.sim_self
    return out


def extract_placement_values(
    records: list[dict[str, Any]],
) -> dict[str, float]:
    """Shard-placement gauges: real vs simulated partitioner quality.

    Collects the ``shard.placement.*`` family the sharded backend
    publishes at warmup — per-shard ``rows`` / ``nnz`` and the
    ``balance`` / ``edge_cut`` scores of the real placement next to the
    DistDGL (random hash) and DistGER (workload-balanced) cost models —
    the ``repro diff --shard-placement`` view.  Balance and edge-cut are
    *lower-is-better* ratios, so the group is threshold-gated like the
    time series.
    """
    prefix = "shard.placement."
    out: dict[str, float] = {}
    for key, value in extract_metric_values(records).items():
        if key.startswith(prefix):
            name, brace, labels = key[len(prefix):].partition("{")
            out[f"{name}[{labels[:-1]}]" if brace else name] = value
    return out


def extract_attribution_values(
    records: list[dict[str, Any]],
) -> dict[str, float]:
    """Per-class tail-latency blame fractions from a telemetry export.

    Folds the ``serve.blame_seconds`` counter family (one series per
    request class x blame category, maintained by the serving loop even
    when no live stream is attached) into fractions of each class's
    total attributed seconds — the same numbers ``repro attribute``
    prints from a stream.  Keys look like ``interactive/queue``.
    Fractions rather than raw seconds, so two runs of different length
    still compare; a class whose latency *composition* shifts (say
    queue blame doubling at the expense of kernel) is what the
    ``repro diff --attribution`` gate catches.
    """
    seconds: dict[str, dict[str, float]] = {}
    metrics = MetricsRegistry.from_records(records)
    for series in metrics.series("serve.blame_seconds"):
        if not isinstance(series, Histogram):
            klass, category = (
                str(series.labels.get(key, "?")) for key in ("klass", "category")
            )
            merge_blame(seconds, klass, {category: series.value})
    return {
        f"{klass}/{category}": fraction
        for klass, blame in seconds.items()
        for category, fraction in blame_fractions(blame).items()
    }


def extract_metric_values(
    records: list[dict[str, Any]],
) -> dict[str, float]:
    """Counter/gauge values keyed by their full labelled name."""
    return {
        full_name(series.name, series.labels): series.value
        for series in MetricsRegistry.from_records(records)
        if not isinstance(series, Histogram)
    }


def threshold_label(threshold: float) -> str:
    """``threshold`` as the percentage a report title prints."""
    return f"threshold {threshold * 100:.10g}%"


def check_threshold(threshold: float) -> float:
    """``threshold``, or ``ValueError`` naming it unless finite and >= 0."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(
            f"threshold must be a finite number >= 0, got {threshold!r}"
        )
    return threshold


def diff_series(
    group: str,
    a: dict[str, float],
    b: dict[str, float],
    threshold: float,
    gated: bool,
) -> list[DeltaRow]:
    """The one regression rule: a row per name of ``a`` or ``b``.  A gated
    row regresses when ``b`` is not finite or exceeds ``a * (1 + t)``,
    and when ``a`` is not finite (a NaN or infinite baseline would
    otherwise hide any candidate)."""
    check_threshold(threshold)
    rows = []
    for name in sorted(set(a) | set(b)):
        va, vb = a.get(name), b.get(name)
        if gated and vb is not None and not math.isfinite(vb):
            status = STATUS_REGRESSED
        elif va is None:
            status = STATUS_ADDED
        elif vb is None:
            status = STATUS_REMOVED
        elif gated and (not math.isfinite(va) or vb > va * (1.0 + threshold)):
            status = STATUS_REGRESSED
        elif gated and vb < va * (1.0 - threshold):
            status = STATUS_IMPROVED
        else:
            status = STATUS_UNCHANGED
        rows.append(DeltaRow(group=group, name=name, a=va, b=vb, status=status))
    return rows


def diff_runs(
    records_a: list[dict[str, Any]],
    records_b: list[dict[str, Any]],
    threshold: float = REGRESSION_THRESHOLD,
    include_profile: bool = False,
    include_placement: bool = False,
    include_attribution: bool = False,
) -> DiffReport:
    """Compare two telemetry exports; ``records_a`` is the baseline.

    With ``include_profile``, the hierarchical profiles are compared
    too: per-node simulated self-time deltas, threshold-gated like the
    stage series.  With ``include_placement``, the shard-placement
    gauges (real distribution vs the DistDGL/DistGER cost models) get
    their own gated group.  With ``include_attribution``, the per-class
    tail-latency blame fractions (``serve.blame_seconds``) get a gated
    group — a latency mix shifting toward queue or hedge blame fails
    the diff even when the totals look flat.
    """
    report = DiffReport(
        threshold=threshold,
        manifest_a=manifest_from_records(records_a),
        manifest_b=manifest_from_records(records_b),
    )
    for group, extract, wanted in (
        (GROUP_STAGES, extract_stage_seconds, True),
        (GROUP_COSTS, extract_cost_seconds, True),
        (GROUP_PROFILE, extract_profile_self_seconds, include_profile),
        (GROUP_PLACEMENT, extract_placement_values, include_placement),
        (GROUP_ATTRIBUTION, extract_attribution_values, include_attribution),
        (GROUP_METRICS, extract_metric_values, True),
    ):
        if wanted:
            report.rows.extend(
                diff_series(
                    group,
                    extract(records_a),
                    extract(records_b),
                    threshold,
                    gated=group != GROUP_METRICS,
                )
            )
    return report


def render_diff(report: DiffReport) -> str:
    """Plain-text rendering of a diff report."""
    from repro.bench.harness import format_seconds, format_table

    sections = []
    for manifest, label in (
        (report.manifest_a, "baseline"),
        (report.manifest_b, "candidate"),
    ):
        if manifest is not None:
            sections.append(
                f"{label}: run {manifest.run_id} @ {manifest.git_sha}"
                f" (config {manifest.config_hash},"
                f" dataset {manifest.dataset or '-'})"
            )
    if not report.comparable:
        sections.append(
            "WARNING: config hashes differ — the runs are not directly"
            " comparable; deltas mix configuration and code effects"
        )

    def fmt(group: str, value: float | None) -> str:
        if value is None:
            return "-"
        if group in (GROUP_STAGES, GROUP_COSTS, GROUP_PROFILE):
            return format_seconds(value)
        return f"{value:.6g}"

    for group, title, gated in (
        (GROUP_STAGES, "Per-stage simulated seconds", True),
        (GROUP_COSTS, "Cost-ledger categories", True),
        (GROUP_PROFILE, "Profile-node simulated self seconds", True),
        (
            GROUP_PLACEMENT,
            "Shard placement vs DistDGL/DistGER cost models",
            True,
        ),
        (
            GROUP_ATTRIBUTION,
            "Tail-latency blame fractions (class/category)",
            True,
        ),
        (GROUP_METRICS, "Metrics (context only, not gated)", False),
    ):
        rows = [r for r in report.rows if r.group == group]
        if not rows:
            continue
        table_rows = []
        for r in rows:
            ratio = f"{r.ratio * 100:+.1f}%" if r.ratio is not None else "-"
            table_rows.append(
                [r.name, fmt(group, r.a), fmt(group, r.b), ratio, r.status]
            )
        if gated:
            title = f"{title} ({threshold_label(report.threshold)})"
        sections.append(
            format_table(
                ["series", "baseline", "candidate", "delta", "status"],
                table_rows,
                title=title,
            )
        )
    regressions = report.regressions
    if regressions:
        names = ", ".join(f"{r.group}:{r.name}" for r in regressions)
        sections.append(f"REGRESSED ({len(regressions)}): {names}")
    else:
        sections.append("no regressions above threshold")
    return "\n\n".join(sections)
