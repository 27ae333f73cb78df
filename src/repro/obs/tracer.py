"""Span-based tracing with dual sim/wall clocks.

The simulator produces two distinct notions of time: *simulated* seconds
(what the cost model says the operation would take on the paper's Optane
testbed) and *wall-clock* seconds (what the numpy kernels actually cost
on this machine).  A :class:`Span` records both, so a trace can answer
"where does the modelled time go?" (Fig. 7a) and "where does the harness
itself spend time?" from the same structure.

Simulated time is not read from a global clock — each component computes
its own cost — so the tracer keeps a monotonically increasing *sim
cursor* that instrumented code advances via :meth:`SpanTracer.advance_sim`
as it charges cost.  A span's simulated duration is the cursor movement
between its enter and exit.

Usage::

    tracer = SpanTracer()
    with tracer.span("embed", graph="LJ"):
        with tracer.span("graph_read"):
            tracer.advance_sim(read_seconds)
    for span in tracer.finished:
        print(span.name, span.sim_seconds, span.wall_seconds)

:data:`NULL_TRACER` is a shared no-op instance; hot paths are
instrumented unconditionally against it so the untraced configuration
pays only a handful of no-op calls.
"""

from __future__ import annotations

import secrets
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One traced operation: a named interval on both clocks.

    Attributes:
        name: operation name (dotted names group related spans).
        span_id: creation-order identifier, unique within a tracer.
        parent_id: enclosing span's id, or None for a root span.
        depth: nesting depth (0 for roots), for indented rendering.
        sim_start / sim_end: sim-cursor positions at enter/exit.
        wall_start / wall_end: ``time.perf_counter()`` at enter/exit.
        attributes: free-form key/value annotations.
        status: ``"ok"``, ``"error"``, or ``"open"`` while running.
        trace_id: run-wide trace the span belongs to.
    """

    name: str
    span_id: int
    parent_id: int | None
    depth: int
    sim_start: float
    wall_start: float
    sim_end: float = 0.0
    wall_end: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)
    status: str = "open"
    trace_id: str = ""

    @property
    def sim_seconds(self) -> float:
        """Simulated seconds attributed to this span (children included)."""
        return self.sim_end - self.sim_start

    @property
    def wall_seconds(self) -> float:
        """Wall-clock seconds between enter and exit."""
        return self.wall_end - self.wall_start

    def set(self, key: str, value: Any) -> None:
        """Attach or overwrite one attribute."""
        self.attributes[key] = value

    def to_record(self) -> dict[str, Any]:
        """Serialize to a plain dict (the JSONL span record payload)."""
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "sim_seconds": self.sim_seconds,
            "wall_seconds": self.wall_seconds,
            "sim_start": self.sim_start,
            "status": self.status,
            "trace_id": self.trace_id,
            "attributes": dict(self.attributes),
        }


class SpanTracer:
    """Records nested spans against a shared sim cursor."""

    def __init__(self, trace_id: str | None = None) -> None:
        self.trace_id = trace_id if trace_id else secrets.token_hex(8)
        self._next_id = 0
        self._stack: list[Span] = []
        self._finished: list[Span] = []
        self._sim_cursor = 0.0
        self._listeners: list[Callable[[Span], None]] = []

    # -- clocks --------------------------------------------------------------

    @property
    def sim_cursor(self) -> float:
        """Current position of the simulated clock, in seconds."""
        return self._sim_cursor

    def advance_sim(self, seconds: float) -> None:
        """Advance the simulated clock; attributes time to open spans."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self._sim_cursor += seconds

    # -- span lifecycle ------------------------------------------------------

    @property
    def current_span(self) -> Span | None:
        """Innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a child span for the duration of the ``with`` block."""
        parent = self.current_span
        entry = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            sim_start=self._sim_cursor,
            wall_start=time.perf_counter(),
            attributes=dict(attributes),
            trace_id=self.trace_id,
        )
        self._next_id += 1
        self._stack.append(entry)
        try:
            yield entry
            entry.status = "ok"
        except BaseException:
            entry.status = "error"
            raise
        finally:
            entry.sim_end = self._sim_cursor
            entry.wall_end = time.perf_counter()
            self._stack.pop()
            self._finish(entry)

    def record(
        self,
        name: str,
        sim_seconds: float = 0.0,
        wall_seconds: float = 0.0,
        advance: bool = False,
        **attributes: Any,
    ) -> Span:
        """Record a complete span with explicit durations.

        Used for summary spans whose cost was measured elsewhere (e.g. the
        per-step SpMM totals already accumulated in a
        :class:`~repro.memsim.trace.CostTrace`).  With ``advance=False``
        (the default) the sim cursor is untouched, so the recorded time is
        an annotation rather than new simulated progress.
        """
        if sim_seconds < 0 or wall_seconds < 0:
            raise ValueError(
                f"durations must be >= 0, got {sim_seconds}, {wall_seconds}"
            )
        parent = self.current_span
        wall_now = time.perf_counter()
        entry = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            sim_start=self._sim_cursor,
            wall_start=wall_now - wall_seconds,
            sim_end=self._sim_cursor + sim_seconds,
            wall_end=wall_now,
            attributes=dict(attributes),
            status="ok",
            trace_id=self.trace_id,
        )
        self._next_id += 1
        if advance:
            self.advance_sim(sim_seconds)
        self._finish(entry)
        return entry

    # -- streaming -----------------------------------------------------------

    def add_listener(self, listener: Callable[[Span], None]) -> None:
        """Call ``listener(span)`` every time a span finishes.

        This is the streaming hook: the session's listener appends each
        span to its :class:`~repro.obs.live.TelemetryStream` the moment
        it closes.
        """
        self._listeners.append(listener)

    def _finish(self, entry: Span) -> None:
        self._finished.append(entry)
        for listener in self._listeners:
            listener(entry)

    # -- results -------------------------------------------------------------

    @property
    def finished(self) -> list[Span]:
        """Completed spans, in creation order (parents before children)."""
        return sorted(self._finished, key=lambda s: s.span_id)

    def find(self, name: str) -> list[Span]:
        """All finished spans with a given name."""
        return [s for s in self.finished if s.name == name]

    def to_records(self) -> list[dict[str, Any]]:
        """Serialize every finished span, in creation order."""
        return [span.to_record() for span in self.finished]

    def reset(self) -> None:
        """Discard all spans and rewind the sim cursor."""
        if self._stack:
            raise RuntimeError(
                f"cannot reset with {len(self._stack)} span(s) still open"
            )
        self._next_id = 0
        self._finished = []
        self._sim_cursor = 0.0


class _NullSpan(Span):
    """Shared inert span yielded by :class:`NullTracer`."""

    def set(self, key: str, value: Any) -> None:
        pass


class NullTracer(SpanTracer):
    """No-op tracer: same API, no recording, near-zero overhead.

    Every public :class:`SpanTracer` method is either overridden here or
    provably inert on the null path (``tests/test_obs_tracer.py`` holds
    the contract test that keeps the two surfaces identical):

    - ``advance_sim`` / ``span`` / ``record`` / ``add_listener`` —
      overridden, touch nothing;
    - ``sim_cursor`` / ``current_span`` / ``finished`` / ``find`` /
      ``to_records`` / ``reset`` — inherited, but operate on the
      internal state the overrides never mutate, so they always report
      the empty tracer (cursor 0, no spans) and ``reset`` is a no-op
      that can never raise.
    """

    _SPAN = _NullSpan(
        name="null",
        span_id=-1,
        parent_id=None,
        depth=0,
        sim_start=0.0,
        wall_start=0.0,
    )

    def advance_sim(self, seconds: float) -> None:
        pass

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        yield self._SPAN

    def record(
        self,
        name: str,
        sim_seconds: float = 0.0,
        wall_seconds: float = 0.0,
        advance: bool = False,
        **attributes: Any,
    ) -> Span:
        return self._SPAN

    def add_listener(self, listener: Callable[[Span], None]) -> None:
        pass


#: Shared no-op tracer for unconditionally instrumented hot paths.
NULL_TRACER = NullTracer()
