"""The telemetry session: one run's tracer, metrics, ledgers and file.

A telemetry file is an append-only JSON-Lines stream of self-describing
records, written by exactly one
:class:`~repro.obs.live.TelemetryStream`:

- ``{"type": "stream_meta", ...}`` — the writer's header (pid, trace);
- ``{"type": "meta", ...}``        — run metadata (graph, config, version);
- ``{"type": "span", ...}``        — one tracer span, appended the moment
  it finishes;
- ``{"type": "event", ...}``       — free-form instant events, appended
  as they are recorded;
- ``serve_snapshot`` / ``serve_request`` / ``forensic_span`` /
  ``shard_event`` — what the serve tier and the shard supervisor put on
  the same stream while they run;
- ``{"type": "metric", ...}``      — one counter/gauge/histogram;
- ``{"type": "cost_trace", ...}``  — a named :class:`CostTrace` ledger
  (full float precision, so downstream breakdowns reproduce
  ``CostTrace.breakdown()`` exactly);
- ``{"type": "manifest", ...}``    — the run manifest (git SHA, config
  hash, dataset, seed, sim/wall totals; see
  :mod:`repro.obs.observatory.manifest`);
- ``{"type": "stream_closed", ...}`` — the clean-close sentinel; it and
  the three kinds before it are written at close.

:class:`TelemetrySession` bundles one tracer + one registry + metadata
and owns the stream; the CLI (``--telemetry-out``), the bench harness
and tests all go through it so every producer emits the same schema and
every view (``repro report`` / ``diff`` / ``profile`` / ``top`` /
``why`` / ``attribute``) reads every file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

from repro.memsim.trace import CostTrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, SpanTracer

#: Schema version stamped into every meta record.
TELEMETRY_VERSION = 1


class TelemetrySession:
    """One run's tracer, metrics, ledgers and metadata, exportable.

    Args:
        meta: run metadata serialized into the leading meta record.
        tracer: span tracer to use (a fresh one by default).
        metrics: metrics registry to use (a fresh one by default).

    ``stream`` is the open :class:`~repro.obs.live.TelemetryStream`
    between :meth:`stream_to` and :meth:`close_stream`, else None.
    """

    def __init__(
        self,
        meta: dict[str, Any] | None = None,
        tracer: SpanTracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else SpanTracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.meta = dict(meta or {})
        self._traces: dict[str, CostTrace] = {}
        self._events: list[dict[str, Any]] = []
        self.stream: Any | None = None
        self.tracer.add_listener(self._on_span)

    def _meta_record(self) -> dict[str, Any]:
        return {
            "type": "meta",
            "telemetry_version": TELEMETRY_VERSION,
            **self.meta,
        }

    def _cost_trace_records(self) -> list[dict[str, Any]]:
        return [
            {"type": "cost_trace", "name": name, **trace.to_dict()}
            for name, trace in sorted(self._traces.items())
        ]

    def _on_span(self, span: Span) -> None:
        if self.stream is not None:
            self.stream.emit(span.to_record())

    def stream_to(
        self,
        path: str | Path,
        flush_every: int = 20,
        on_record: Callable[[dict[str, Any]], None] | None = None,
    ):
        """Open this session's telemetry file at ``path``.

        The meta record is written immediately, every span is appended
        the moment it finishes, and events forward as they are
        recorded; ``on_record`` is handed to the
        :class:`~repro.obs.live.TelemetryStream`.  Call
        :meth:`close_stream` for the final metrics + manifest; a crash
        before that still leaves every flushed record behind.
        """
        from repro.obs.live import TelemetryStream

        if self.stream is not None:
            raise ValueError("session is already streaming")
        self.stream = TelemetryStream(
            path,
            flush_every=flush_every,
            trace_id=self.tracer.trace_id,
            on_record=on_record,
        )
        self.stream.emit(self._meta_record())
        return self.stream

    def close_stream(self) -> Path | None:
        """Finish the telemetry file: metrics, ledgers, manifest, close.

        Returns the file's path, or None when no stream was open.
        """
        if self.stream is None:
            return None
        stream, self.stream = self.stream, None
        for record in self.metrics.to_records():
            stream.emit(record)
        for record in self._cost_trace_records():
            stream.emit(record)
        stream.emit(self.manifest().to_record())
        stream.emit({"type": "stream_closed", "n_records": stream.n_records})
        stream.close()
        return stream.path

    def add_cost_trace(self, name: str, trace: CostTrace) -> None:
        """Attach a named cost ledger (merged if the name repeats)."""
        if name in self._traces:
            self._traces[name].merge(trace)
        else:
            merged = CostTrace()
            merged.merge(trace)
            self._traces[name] = merged

    def cost_trace(self, name: str) -> CostTrace | None:
        """Look up an attached ledger by name."""
        return self._traces.get(name)

    def event(self, name: str, **fields: Any) -> None:
        """Record a free-form instant event (forwarded live if streaming)."""
        record = {
            "type": "event",
            "name": name,
            "sim_cursor": self.tracer.sim_cursor,
            **fields,
        }
        self._events.append(record)
        if self.stream is not None:
            self.stream.emit(record)
            self.stream.flush()

    def manifest(self):
        """The run manifest of this session's current state.

        Computed fresh on every call (the identity includes the span
        and metric counts plus the sim total, all of which grow as the
        run progresses).
        """
        # Imported lazily: the observatory is pure post-processing on
        # top of this module and imports it back.
        from repro.obs.observatory.manifest import build_manifest

        return build_manifest(
            self.meta,
            self.tracer.to_records(),
            self.metrics.to_records(),
            self._events,
            sim_seconds_total=self.tracer.sim_cursor,
        )

    def records(self) -> list[dict[str, Any]]:
        """All records of this session: meta, then the run manifest."""
        return [
            self._meta_record(),
            self.manifest().to_record(),
            *self.tracer.to_records(),
            *self.metrics.to_records(),
            *self._cost_trace_records(),
            *self._events,
        ]

    def save(self, path: str | Path) -> Path:
        """Write a session that was not streaming as one telemetry file.

        The at-end convenience: the same stream a ``stream_to`` at the
        start of the run would have produced, minus what other writers
        would have put on it in between.
        """
        stream = self.stream_to(path)
        for record in self.tracer.to_records():
            stream.emit(record)
        for record in self._events:
            stream.emit(record)
        return self.close_stream()
