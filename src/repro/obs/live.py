"""The telemetry file: its writer, its readers and the ``repro top`` view.

- :class:`TelemetryStream` — the only writer: an append-only JSONL
  stream written incrementally with periodic flush, one writer per
  file, so a crash loses at most the unflushed tail, never the run.
- :func:`load_records` — the only loader: parses a file
  (:func:`read_stream`) and regroups it into the
  :meth:`~repro.obs.export.TelemetrySession.records` shape, so
  ``repro diff`` / ``profile`` / ``report`` / ``why`` / ``attribute``
  work on every file.  :class:`StreamFollower` tails a file another
  process is still writing.
- The ops view — :func:`build_top_frame` folds a stream's latest
  ``serve_snapshot`` (or final metrics) into the dashboard numbers
  ``repro top`` renders as a table.

The reader rule: every newline-terminated line must decode to a JSON
object, else ``ValueError`` naming ``path:line``; an unterminated final
fragment — the only thing a killed single writer can leave — is skipped
and counted.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.obs.export import TELEMETRY_VERSION
from repro.obs.metrics import MetricsRegistry

#: Record type of the periodic serving snapshot on a live stream.
SNAPSHOT_RECORD_TYPE = "serve_snapshot"

#: Metric-name prefixes a serving snapshot embeds.
SNAPSHOT_PREFIXES = ("serve.", "spmm.")

#: Record type marking a cleanly closed stream.
CLOSED_RECORD_TYPE = "stream_closed"

#: The record types of a session export, in the order
#: :meth:`TelemetrySession.records` emits them.
_SESSION_TYPES = ("meta", "manifest", "span", "metric", "cost_trace", "event")


# ---------------------------------------------------------------------------
# The stream
# ---------------------------------------------------------------------------


class TelemetryStream:
    """Append-only, crash-tolerant JSONL telemetry stream.

    Records are written one JSON object per line and flushed every
    ``flush_every`` records (``1`` = flush each record), so a follower
    sees progress while the run is live and a crash loses at most the
    unflushed tail.  The first record is always a ``stream_meta`` header
    naming the telemetry version, the writing process and the trace.
    ``on_record`` is called with each record once it is written
    (``--follow`` prints from it).
    """

    def __init__(
        self,
        path: str | Path,
        flush_every: int = 20,
        trace_id: str | None = None,
        on_record: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path)
        self.trace_id = trace_id
        self.flush_every = int(flush_every)
        self.on_record = on_record
        self.n_records = 0
        self._since_flush = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        self.emit(
            {
                "type": "stream_meta",
                "telemetry_version": TELEMETRY_VERSION,
                "role": "coordinator",
                "pid": os.getpid(),
                "trace_id": trace_id,
            }
        )

    def emit(self, record: dict[str, Any]) -> None:
        """Append one record, flushing per the stream's cadence."""
        if self._handle is None:
            raise ValueError(f"stream {self.path} is closed")
        if "type" not in record:
            raise ValueError(f"record must carry a 'type' field: {record!r}")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self.n_records += 1
        self._since_flush += 1
        if self._since_flush >= self.flush_every:
            self.flush()
        if self.on_record is not None:
            self.on_record(record)

    def flush(self) -> None:
        """Push buffered records to the file."""
        if self._handle is not None:
            self._handle.flush()
        self._since_flush = 0

    def close(self) -> None:
        """Flush and close; further :meth:`emit` calls raise."""
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TelemetryStream":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _parse_line(line: str, where: str) -> dict[str, Any] | None:
    """One telemetry line: its record, or ``None`` when it is blank.

    Anything but a JSON object raises ``ValueError`` naming ``where``
    (``path:line``).  Both readers below decode through here.
    """
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError("not a JSON object")
    except ValueError as exc:  # JSONDecodeError included
        raise ValueError(f"{where}: invalid telemetry record: {exc}") from exc
    return record


def read_stream(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Parse a telemetry file in file order: ``(records, n_skipped)``.

    Every newline-terminated line must decode to a JSON object; one
    that does not raises ``ValueError`` with its location.  A process
    killed mid-write leaves a partial final line, so an unterminated
    fragment that does not decode is skipped and counted in
    ``n_skipped`` (0 or 1) instead.
    """
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    lines = text.split("\n")  # the last item is the unterminated tail
    records: list[dict[str, Any]] = []
    skipped = 0
    for line_no, line in enumerate(lines, start=1):
        try:
            record = _parse_line(line, f"{path}:{line_no}")
        except ValueError:
            if line_no < len(lines):
                raise
            skipped = 1
            continue
        if record is not None:
            records.append(record)
    return records, skipped


class StreamFollower:
    """Incremental reader over a growing stream file (``repro top``).

    Keeps a byte offset plus the partial tail of the last read, so each
    :meth:`poll` returns only records completed since the previous poll
    and a half-written line is simply retried next time.  A completed
    line that is not a JSON object raises, as in :func:`read_stream`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.records: list[dict[str, Any]] = []
        #: True once the writer emitted its ``stream_closed`` sentinel.
        self.closed = False
        self._offset = 0
        self._tail = ""
        self._line_no = 0

    def poll(self) -> list[dict[str, Any]]:
        """Read newly completed records; also appended to ``records``."""
        if not self.path.exists():
            return []
        with self.path.open("r", encoding="utf-8", errors="replace") as fh:
            fh.seek(self._offset)
            chunk = fh.read()
            self._offset = fh.tell()
        if not chunk:
            return []
        lines = (self._tail + chunk).split("\n")
        self._tail = lines.pop()  # "" when the chunk ended on a newline
        fresh: list[dict[str, Any]] = []
        for line in lines:
            self._line_no += 1
            record = _parse_line(line, f"{self.path}:{self._line_no}")
            if record is not None:
                fresh.append(record)
                if record.get("type") == CLOSED_RECORD_TYPE:
                    self.closed = True
        self.records.extend(fresh)
        return fresh


# ---------------------------------------------------------------------------
# Loading a file in the session-records shape
# ---------------------------------------------------------------------------


def split_records(
    records: list[dict[str, Any]],
) -> dict[str, list[dict[str, Any]]]:
    """Group records by their ``type`` field, in record order.

    Every session type has a group, empty or not; any other type gets
    its own (``"unknown"`` for a record without one).
    """
    groups: dict[str, list[dict[str, Any]]] = {
        kind: [] for kind in _SESSION_TYPES
    }
    for record in records:
        groups.setdefault(record.get("type", "unknown"), []).append(record)
    return groups


def canonical_order(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Regroup file-order records into the session-records shape.

    Meta, manifest, spans in id order, metrics, cost traces, events —
    what :meth:`TelemetrySession.records` returns — followed by the
    stream-only records (snapshots, serve requests, shard events,
    stream markers) in file order.  If the stream was cut before close,
    a manifest is synthesized from what survived.
    """
    groups = split_records(records)
    spans = sorted(groups["span"], key=lambda s: int(s.get("span_id", 0) or 0))
    manifests = groups["manifest"] or [
        _synthesize_manifest(
            groups["meta"], spans, groups["metric"], groups["event"]
        )
    ]
    return (
        groups["meta"][:1]
        + manifests[:1]
        + spans
        + groups["metric"]
        + groups["cost_trace"]
        + groups["event"]
        + [
            r for r in records
            if r.get("type", "unknown") not in _SESSION_TYPES
        ]
    )


def load_records(path: str | Path) -> list[dict[str, Any]]:
    """Load a telemetry file: :func:`read_stream`, regrouped.

    The one loader behind every file-reading view.  A torn final
    fragment is dropped silently here; callers that want to mention it
    take the count from :func:`read_stream` themselves.
    """
    return canonical_order(read_stream(path)[0])


def _synthesize_manifest(
    metas: list[dict[str, Any]],
    spans: list[dict[str, Any]],
    metrics: list[dict[str, Any]],
    events: list[dict[str, Any]],
) -> dict[str, Any]:
    """Best-effort manifest for a stream cut before clean close."""
    from repro.obs.observatory.manifest import build_manifest

    meta = dict(metas[0]) if metas else {}
    sim_total = max(
        (
            float(s.get("sim_start", 0.0) or 0.0)
            + max(0.0, float(s.get("sim_seconds", 0.0) or 0.0))
            for s in spans
        ),
        default=0.0,
    )
    manifest = build_manifest(meta, spans, metrics, events, sim_total)
    record = manifest.to_record()
    record["synthesized"] = True
    return record


def progress_line(record: dict[str, Any]) -> str | None:
    """One human-readable progress line for a telemetry record.

    The ``--follow`` mode of ``repro embed`` / ``repro compare`` prints
    these from its stream's ``on_record`` hook as the run advances:
    completed pipeline stages (coarse spans only — partition spans
    would flood the terminal), shard events from the resilience
    layer, and run-level events.  Returns ``None`` for records that
    carry no progress signal.
    """
    kind = record.get("type")
    if kind == "span":
        depth = int(record.get("depth", 0) or 0)
        if depth > 2 or record.get("name") == "spmm_partition":
            return None
        sim = float(record.get("sim_seconds", 0.0) or 0.0)
        status = record.get("status", "ok")
        suffix = "" if status == "ok" else f" [{status}]"
        return f"  stage {record.get('name')}: {sim:.4g}s sim{suffix}"
    if kind == "shard_event":
        event = record.get("event")
        shard = record.get("shard")
        detail = ", ".join(
            f"{key}={record[key]}"
            for key in ("reason", "version", "lag_closed", "lost_versions")
            if record.get(key) not in (None, "", 0)
        )
        return f"  shard {shard}: {event}" + (f" ({detail})" if detail else "")
    if kind == "event":
        name = record.get("name")
        if name == "arm":
            return (
                f"  arm {record.get('system')}: {record.get('status')}"
                f" ({float(record.get('sim_seconds', 0.0) or 0.0):.4g}s sim)"
            )
        return f"  event {name}"
    if kind == CLOSED_RECORD_TYPE:
        return "  stream closed"
    return None


# ---------------------------------------------------------------------------
# Serving snapshots and the ops view
# ---------------------------------------------------------------------------


def build_serve_snapshot(
    metrics: Iterable[Any],
    *,
    sim_now_s: float,
    breaker_state: str,
    queue_depth: int,
) -> dict[str, Any]:
    """One periodic snapshot of the serving loop's observable state.

    Embeds the current records of every metric under
    :data:`SNAPSHOT_PREFIXES` so a follower can compute rates between
    consecutive snapshots without replaying the whole run.
    """
    metric_records = [
        m.to_record()
        for m in metrics
        if m.name.startswith(SNAPSHOT_PREFIXES)
    ]
    return {
        "type": SNAPSHOT_RECORD_TYPE,
        "sim_now_s": float(sim_now_s),
        "breaker_state": str(breaker_state),
        "queue_depth": int(queue_depth),
        "metrics": metric_records,
    }


def latest_metric_records(
    records: list[dict[str, Any]],
) -> list[dict[str, Any]]:
    """The freshest metric view a stream offers.

    The last ``serve_snapshot`` wins (it is the live view); a closed
    stream's final ``metric`` records win over any snapshot because they
    are complete.
    """
    finals = [r for r in records if r.get("type") == "metric"]
    if finals:
        return finals
    snapshots = [
        r for r in records if r.get("type") == SNAPSHOT_RECORD_TYPE
    ]
    if snapshots:
        return list(snapshots[-1].get("metrics") or [])
    return []


def build_top_frame(
    records: list[dict[str, Any]],
    slo_spec: Any | None = None,
) -> dict[str, Any]:
    """Fold stream records into the numbers ``repro top`` renders.

    Rates are simulated-time rates computed between the last two
    snapshots when possible (the live view), falling back to run-wide
    averages.  SLO burn rows appear when ``slo_spec`` is given.
    """
    from repro.obs.observatory.slo import evaluate_slo

    snapshots = [
        r for r in records if r.get("type") == SNAPSHOT_RECORD_TYPE
    ]
    metric_records = latest_metric_records(records)
    metrics = MetricsRegistry.from_records(metric_records)
    closed = any(r.get("type") == CLOSED_RECORD_TYPE for r in records)

    last = snapshots[-1] if snapshots else {}
    prev = snapshots[-2] if len(snapshots) >= 2 else {}
    sim_now, sim_prev = (
        float(s.get("sim_now_s", 0.0) or 0.0) for s in (last, prev)
    )
    breaker = last.get("breaker_state", "-")
    queue_depth = int(last.get("queue_depth", 0) or 0)

    submitted = metrics.total("serve.submitted")
    statuses = metrics.totals_by("serve.responses", "status")
    responded = sum(statuses.values())

    # Between-snapshot rates (per simulated second) when two snapshots
    # exist; otherwise the run-wide average.
    dt = sim_now - sim_prev if prev else 0.0
    req_rate = shed_rate = None
    if dt > 0:
        before, now = (
            MetricsRegistry.from_records(s.get("metrics") or [])
            for s in (prev, last)
        )
        req_rate = (
            now.total("serve.submitted") - before.total("serve.submitted")
        ) / dt
        shed_rate = (
            now.total("serve.responses", status="shed")
            - before.total("serve.responses", status="shed")
        ) / dt
    elif sim_now > 0:
        req_rate = submitted / sim_now
        shed_rate = statuses.get("shed", 0.0) / sim_now

    histogram = metrics.merged("serve.latency")
    p50 = histogram.quantile(0.5) if histogram is not None else math.nan
    p99 = histogram.quantile(0.99) if histogram is not None else math.nan

    fidelity = metrics.totals_by("serve.served", "fidelity")
    tier_calls = metrics.totals_by("serve.backend.calls", "fidelity")
    tier_seconds = metrics.totals_by("serve.backend.sim_seconds", "fidelity")

    spmm_calls = metrics.total("spmm.calls")
    spmm_nnz = metrics.total("spmm.nnz")
    spmm_kernel_wall = metrics.total("spmm.kernel_wall_seconds")
    spmm_throughput = (
        spmm_nnz / spmm_kernel_wall if spmm_kernel_wall > 0 else math.nan
    )

    slo_report = None
    if slo_spec is not None and metric_records:
        slo_report = evaluate_slo(metric_records, slo_spec)

    return {
        "closed": closed,
        "n_snapshots": len(snapshots),
        "sim_now_s": sim_now,
        "breaker_state": breaker,
        "queue_depth": queue_depth,
        "submitted": submitted,
        "responded": responded,
        "statuses": statuses,
        "req_rate": req_rate,
        "shed_rate": shed_rate,
        "latency_p50_s": p50,
        "latency_p99_s": p99,
        "fidelity": fidelity,
        "tier_calls": tier_calls,
        "tier_seconds": tier_seconds,
        "spmm_calls": spmm_calls,
        "spmm_nnz": spmm_nnz,
        "spmm_kernel_wall_s": spmm_kernel_wall,
        "spmm_nnz_per_wall_s": spmm_throughput,
        "slo_report": slo_report,
    }


def _fmt(value: float | None, digits: int = 2, suffix: str = "") -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "-"
    return f"{value:.{digits}f}{suffix}"


def render_top(frame: dict[str, Any]) -> str:
    """Render one dashboard frame as terminal text."""
    from repro.bench.harness import format_table

    state = "closed" if frame["closed"] else "live"
    lines = [
        f"repro top — {state}, sim t={_fmt(frame['sim_now_s'], 3, 's')},"
        f" snapshots={frame['n_snapshots']}",
        "",
    ]
    statuses = frame["statuses"]
    total = max(frame["responded"], 1.0)
    rows = [
        ["submitted", f"{frame['submitted']:.0f}", _fmt(frame["req_rate"], 2, "/s")],
        *[
            [
                status,
                f"{statuses.get(status, 0.0):.0f}",
                f"{100.0 * statuses.get(status, 0.0) / total:.1f}%",
            ]
            for status in ("served", "shed", "deadline_exceeded", "failed")
        ],
    ]
    lines.append(format_table(["requests", "count", "rate"], rows))
    lines.append("")
    lines.append(
        f"breaker={frame['breaker_state']}  queue_depth={frame['queue_depth']}"
        f"  shed_rate={_fmt(frame['shed_rate'], 2, '/s')}"
        f"  p50={_fmt(frame['latency_p50_s'], 4, 's')}"
        f"  p99={_fmt(frame['latency_p99_s'], 4, 's')}"
    )
    if frame["fidelity"] or frame["tier_calls"]:
        tiers = sorted(
            set(frame["fidelity"]) | set(frame["tier_calls"])
        )
        tier_rows = [
            [
                tier or "?",
                f"{frame['fidelity'].get(tier, 0.0):.0f}",
                f"{frame['tier_calls'].get(tier, 0.0):.0f}",
                _fmt(frame["tier_seconds"].get(tier), 4, "s"),
            ]
            for tier in tiers
        ]
        lines.append("")
        lines.append(
            format_table(
                ["tier", "served", "backend calls", "sim seconds"], tier_rows
            )
        )
    if frame["spmm_calls"] > 0:
        lines.append("")
        lines.append(
            f"spmm: calls={frame['spmm_calls']:.0f}"
            f" nnz={frame['spmm_nnz']:.0f}"
            f" kernel_wall={_fmt(frame['spmm_kernel_wall_s'], 3, 's')}"
            f" throughput={_fmt(frame['spmm_nnz_per_wall_s'], 0, ' nnz/s')}"
        )
    if frame["slo_report"] is not None:
        from repro.obs.observatory.slo import render_slo

        lines.append("")
        lines.append(render_slo(frame["slo_report"]))
    return "\n".join(lines)
