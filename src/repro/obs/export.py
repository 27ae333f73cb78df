"""Structured telemetry export: JSONL event sink and snapshots.

A telemetry file is a JSON-Lines stream of self-describing records:

- ``{"type": "meta", ...}``        — run metadata (graph, config, version);
- ``{"type": "manifest", ...}``    — the run manifest (git SHA, config
  hash, dataset, seed, sim/wall totals; see
  :mod:`repro.obs.observatory.manifest`);
- ``{"type": "span", ...}``        — one finished tracer span;
- ``{"type": "metric", ...}``      — one counter/gauge/histogram;
- ``{"type": "cost_trace", ...}``  — a named :class:`CostTrace` ledger
  (full float precision, so downstream breakdowns reproduce
  ``CostTrace.breakdown()`` exactly);
- ``{"type": "event", ...}``       — free-form instant events.

:class:`TelemetrySession` bundles one tracer + one registry + metadata
and knows how to serialize the lot; the CLI (``--telemetry-out``), the
bench harness and tests all go through it so every producer emits the
same schema.  ``repro report`` (:mod:`repro.obs.report`) renders the
file back into the Fig. 7(a)-style tables.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, IO

from repro.memsim.trace import CostTrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SpanTracer

#: Schema version stamped into every meta record.
TELEMETRY_VERSION = 1


class JsonlSink:
    """Streaming JSON-Lines writer for telemetry records."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: IO[str] | None = self.path.open("w", encoding="utf-8")
        self.n_records = 0

    def emit(self, record: dict[str, Any]) -> None:
        """Append one record (must be JSON-serializable)."""
        if self._handle is None:
            raise ValueError(f"sink {self.path} is closed")
        if "type" not in record:
            raise ValueError(f"telemetry records need a 'type' field: {record}")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self.n_records += 1

    def emit_all(self, records: list[dict[str, Any]]) -> None:
        """Append a batch of records."""
        for record in records:
            self.emit(record)

    def close(self) -> None:
        """Flush and close the underlying file."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Load every record of a telemetry file."""
    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: invalid telemetry record: {exc}"
                ) from exc
    return records


class TelemetrySession:
    """One run's tracer, metrics, ledgers and metadata, exportable.

    Args:
        meta: run metadata serialized into the leading meta record.
        tracer: span tracer to use (a fresh one by default).
        metrics: metrics registry to use (a fresh one by default).
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
        self._stream: Any | None = None

    @property
    def stream(self):
        """The live :class:`~repro.obs.live.TelemetryStream`, if any."""
        return self._stream

    def stream_to(self, path: str | Path, flush_every: int = 20):
        """Switch the session into streaming mode.

        Opens a live :class:`~repro.obs.live.TelemetryStream` at
        ``path`` and wires the session to it: the meta record is
        written immediately, every span is appended the moment it
        finishes (via a tracer listener), and events forward as they
        are recorded.  Call :meth:`close_stream` for the final metrics
        + manifest; a crash before that still leaves every flushed
        record behind.
        """
        from repro.obs.live import TelemetryStream

        if self._stream is not None:
            raise ValueError("session is already streaming")
        stream = TelemetryStream(
            path,
            flush_every=flush_every,
            trace_id=self.tracer.trace_id,
        )
        stream.emit(
            {
                "type": "meta",
                "telemetry_version": TELEMETRY_VERSION,
                **self.meta,
            }
        )
        self.tracer.add_listener(lambda span: stream.emit(span.to_record()))
        self._stream = stream
        return stream

    def close_stream(self) -> Path | None:
        """Finish the live stream: metrics, cost traces, manifest, close.

        Returns the stream path, or None when not streaming.
        """
        if self._stream is None:
            return None
        stream = self._stream
        for record in self.metrics.to_records():
            stream.emit(record)
        for name, trace in sorted(self._traces.items()):
            stream.emit(
                {"type": "cost_trace", "name": name, **trace.to_dict()}
            )
        stream.emit(self.manifest().to_record())
        stream.emit({"type": "stream_closed", "n_records": stream.n_records})
        stream.close()
        self._stream = None
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
        if self._stream is not None:
            self._stream.emit(record)
            self._stream.flush()

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
        out: list[dict[str, Any]] = [
            {
                "type": "meta",
                "telemetry_version": TELEMETRY_VERSION,
                **self.meta,
            },
            self.manifest().to_record(),
        ]
        out.extend(self.tracer.to_records())
        out.extend(self.metrics.to_records())
        for name, trace in sorted(self._traces.items()):
            out.append({"type": "cost_trace", "name": name, **trace.to_dict()})
        out.extend(self._events)
        return out

    def snapshot(self) -> dict[str, Any]:
        """In-memory dict form: spans, metric values, ledger breakdowns."""
        return {
            "meta": dict(self.meta),
            "spans": self.tracer.to_records(),
            "metrics": self.metrics.snapshot(),
            "cost_traces": {
                name: trace.to_dict() for name, trace in sorted(self._traces.items())
            },
            "events": list(self._events),
        }

    def save(self, path: str | Path) -> Path:
        """Write the session as a JSONL telemetry file."""
        path = Path(path)
        with JsonlSink(path) as sink:
            sink.emit_all(self.records())
        return path
