"""Render a telemetry file back into the paper's breakdown tables.

``repro report <trace.jsonl>`` prints, from the records alone:

1. the span tree (sim + wall seconds per pipeline stage);
2. the top-N hot spans by simulated *self* time, from the observatory's
   hierarchical profile aggregator (see ``repro profile`` for the full
   collapsed-stack export);
3. the Fig. 7(a) SpMM step decomposition — the five Algorithm 1 steps
   with their share of SpMM time, reproduced from the exported
   :class:`~repro.memsim.trace.CostTrace` at full float precision;
4. auxiliary simulated costs (allocation, prefetch maintenance,
   streaming, NaDP merges) with their share of total simulated time —
   the §IV-C/§IV-D overhead accounting;
5. counters/gauges and histogram summaries.

Every renderer tolerates adversarial inputs — empty record lists,
records with missing keys, mixed-schema streams — by substituting
defaults rather than raising; a telemetry file should always render
*something*.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

from repro.memsim.trace import SPMM_CATEGORIES, CostTrace
from repro.obs.live import split_records
from repro.obs.metrics import full_name


def _formatters() -> tuple[Callable, Callable]:
    # Imported lazily: repro.bench's package __init__ pulls in the core
    # engine, which itself imports repro.obs for instrumentation.
    from repro.bench.harness import format_seconds, format_table

    return format_seconds, format_table


def merged_cost_trace(records: list[dict[str, Any]]) -> CostTrace:
    """Fold every exported cost ledger into one trace.

    Falls back to leaf spans named after the Algorithm 1 steps when no
    ``cost_trace`` record is present (e.g. a tracer-only producer).
    """
    groups = split_records(records)
    merged = CostTrace()
    if groups["cost_trace"]:
        for record in groups["cost_trace"]:
            merged.merge(CostTrace.from_dict(record))
        return merged
    for span in groups["span"]:
        name = span.get("name")
        if name in SPMM_CATEGORIES:
            merged.charge(
                name,
                max(0.0, float(span.get("sim_seconds", 0.0) or 0.0)),
                (span.get("attributes") or {}).get("nbytes", 0.0),
            )
    return merged


def spmm_step_breakdown(records: list[dict[str, Any]]) -> dict[str, float]:
    """Per-step simulated seconds of the five Algorithm 1 categories."""
    trace = merged_cost_trace(records)
    return {category: trace.seconds(category) for category in SPMM_CATEGORIES}


def _span_tree_table(spans: list[dict[str, Any]]) -> str:
    format_seconds, format_table = _formatters()
    rows = []
    for span in spans:
        depth = span.get("depth", 0)
        indent = "  " * (depth if isinstance(depth, int) and depth > 0 else 0)
        marker = " !" if span.get("status") == "error" else ""
        rows.append(
            [
                f"{indent}{span.get('name', '<unnamed>')}{marker}",
                format_seconds(float(span.get("sim_seconds", 0.0) or 0.0)),
                format_seconds(float(span.get("wall_seconds", 0.0) or 0.0)),
            ]
        )
    return format_table(["span", "sim", "wall"], rows, title="Pipeline spans")


def hot_span_table(profile: Any, top_n: int, title: str | None = None) -> str:
    """Top-N profile nodes by simulated self time ("" when none has any).

    ``profile`` is a :func:`~repro.obs.observatory.profile.build_profile`
    root; ``repro report`` and ``repro profile`` both print this table.
    """
    from repro.obs.observatory.profile import hot_spans

    format_seconds, format_table = _formatters()
    nodes = hot_spans(profile, top_n=top_n)
    if not any(node.sim_self > 0.0 or node.wall_self > 0.0 for node in nodes):
        return ""
    rows = [
        [
            ";".join(node.path[1:]),  # drop the synthetic root
            node.calls,
            format_seconds(node.sim_self),
            format_seconds(node.sim_total),
            format_seconds(node.wall_self),
        ]
        for node in nodes
    ]
    return format_table(
        ["span path", "calls", "sim self", "sim total", "wall self"],
        rows,
        title=title or f"Hot spans (top {len(rows)} by simulated self time)",
    )


def _breakdown_tables(trace: CostTrace) -> list[str]:
    format_seconds, format_table = _formatters()
    tables = []
    spmm_total = sum(trace.seconds(c) for c in SPMM_CATEGORIES)
    if spmm_total > 0.0:
        rows = [
            [
                category,
                f"{trace.seconds(category):.9e}",
                format_seconds(trace.seconds(category)),
                f"{trace.seconds(category) / spmm_total * 100:.1f}%",
            ]
            for category in SPMM_CATEGORIES
        ]
        rows.append(["total", f"{spmm_total:.9e}", format_seconds(spmm_total), "100.0%"])
        tables.append(
            format_table(
                ["step", "sim seconds", "sim", "share of SpMM"],
                rows,
                title="SpMM step breakdown (Fig. 7a)",
            )
        )
    others = {
        category: seconds
        for category, seconds in trace.breakdown().items()
        if category not in SPMM_CATEGORIES
    }
    total = trace.total_seconds
    if others and total > 0.0:
        rows = [
            [
                category,
                f"{seconds:.9e}",
                format_seconds(seconds),
                f"{seconds / total * 100:.2f}%",
            ]
            for category, seconds in sorted(others.items(), key=lambda kv: -kv[1])
        ]
        tables.append(
            format_table(
                ["category", "sim seconds", "sim", "share of total"],
                rows,
                title="Auxiliary simulated costs (§IV-C/§IV-D)",
            )
        )
    return tables


def _metric_tables(metrics: list[dict[str, Any]]) -> list[str]:
    _, format_table = _formatters()

    def label_name(record: dict[str, Any]) -> str:
        return full_name(
            str(record.get("name", "<unnamed>")), record.get("labels") or {}
        )

    tables = []
    scalars = [m for m in metrics if m.get("kind") in ("counter", "gauge")]
    if scalars:
        rows = [
            [
                label_name(m),
                m.get("kind"),
                f"{float(m.get('value', 0.0) or 0.0):.6g}",
            ]
            for m in scalars
        ]
        tables.append(format_table(["metric", "kind", "value"], rows, "Metrics"))
    histograms = [m for m in metrics if m.get("kind") == "histogram"]
    if histograms:
        rows = []
        for m in histograms:
            count = m.get("count", 0) or 0
            mean = float(m.get("sum", 0.0) or 0.0) / count if count else 0.0
            rows.append(
                [
                    label_name(m),
                    count,
                    f"{mean:.6g}",
                    f"{m['min']:.6g}" if m.get("min") is not None else "-",
                    f"{m['max']:.6g}" if m.get("max") is not None else "-",
                ]
            )
        tables.append(
            format_table(
                ["histogram", "count", "mean", "min", "max"], rows, "Histograms"
            )
        )
    return tables


def render_report(records: list[dict[str, Any]]) -> str:
    """Render the full plain-text report from telemetry records."""
    from repro.obs.observatory.profile import build_profile

    groups = split_records(records)
    sections: list[str] = []
    header_sections = 0
    for meta in groups["meta"]:
        fields = ", ".join(
            f"{k}={v}" for k, v in sorted(meta.items()) if k != "type"
        )
        sections.append(f"telemetry: {fields}")
        header_sections += 1
    for manifest in groups["manifest"]:
        sections.append(
            "manifest: run {run} @ {sha} (config {cfg}, dataset {ds},"
            " sim total {sim:.6g} s)".format(
                run=manifest.get("run_id", "?"),
                sha=manifest.get("git_sha", "?"),
                cfg=manifest.get("config_hash", "?"),
                ds=manifest.get("dataset") or "-",
                sim=float(manifest.get("sim_seconds_total", 0.0) or 0.0),
            )
        )
        header_sections += 1
    if groups["span"]:
        sections.append(_span_tree_table(groups["span"]))
        hot = hot_span_table(build_profile(groups["span"]), top_n=10)
        if hot:
            sections.append(hot)
    sections.extend(_breakdown_tables(merged_cost_trace(records)))
    sections.extend(_metric_tables(groups["metric"]))
    if groups["event"]:
        sections.append(f"{len(groups['event'])} event(s) recorded")
    if len(sections) <= header_sections:
        sections.append("telemetry file contains no spans, metrics or ledgers")
    return "\n\n".join(sections)


def skipped_tail_note(skipped: int) -> str:
    """What a file view says when :func:`read_stream` skipped a torn tail."""
    return (
        f"note: {skipped} unterminated trailing fragment skipped"
        " (the writer was cut mid-record)"
    )


def render_report_file(path: str | Path) -> str:
    """Load a telemetry JSONL file and render its report.

    A file that was cut mid-run still renders (with a note about the
    torn tail); corruption anywhere else raises with its location.
    """
    from repro.obs.live import canonical_order, read_stream

    records, skipped = read_stream(path)
    sections = [render_report(canonical_order(records))]
    if skipped:
        sections.append(skipped_tail_note(skipped))
    return "\n\n".join(sections)
