"""Table formatting, projection and telemetry helpers for the benchmarks.

Every bench prints two things per experiment: the rows/series the paper's
table or figure reports, and (when scaled analogues are involved) the
projection of simulated times back to the original graph scale.

Benches can additionally emit the same structured telemetry as the CLI:
:func:`telemetry_session` builds a :class:`~repro.obs.export.TelemetrySession`
and :func:`run_experiment` wraps one experiment callable in a span,
advancing the simulated clock and merging the result's cost ledger when
the result exposes them.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np


def telemetry_session(**meta: Any):
    """Create a telemetry session for a bench run.

    The returned :class:`~repro.obs.export.TelemetrySession` carries the
    tracer/metrics pair to hand to :class:`~repro.core.SpMMEngine` or
    :class:`~repro.core.OMeGaEmbedder`, and ``session.save(path)``
    produces the same JSONL schema as the CLI's ``--telemetry-out``.
    """
    # Imported lazily: repro.obs.report reaches back into this module for
    # its table formatters.
    from repro.obs.export import TelemetrySession

    return TelemetrySession(meta=meta)


def run_experiment(
    label: str,
    fn: Callable[..., Any],
    *args: Any,
    session: Any | None = None,
    advance_sim: bool = True,
    **kwargs: Any,
) -> Any:
    """Run one experiment, optionally under a telemetry session's span.

    When the callable's result exposes ``sim_seconds`` the span is
    credited that much simulated time (disable via ``advance_sim=False``
    if ``fn`` already drives the session's tracer, e.g. an embedder
    constructed with it); a result's ``trace`` ledger is merged into the
    session under ``label``.
    """
    if session is None:
        return fn(*args, **kwargs)
    with session.tracer.span(label):
        result = fn(*args, **kwargs)
        if advance_sim and hasattr(result, "sim_seconds"):
            session.tracer.advance_sim(result.sim_seconds)
    if hasattr(result, "trace"):
        session.add_cost_trace(label, result.trace)
    return result


def geometric_mean(values: list[float]) -> float:
    """Geometric mean of positive values (NaNs skipped)."""
    clean = [v for v in values if np.isfinite(v) and v > 0]
    if not clean:
        return float("nan")
    return float(np.exp(np.mean(np.log(clean))))


def project_full_scale(sim_seconds: float, scale: int) -> float:
    """Project a scaled-analogue simulated time to the original graph.

    Simulated costs are linear in workload to first order, so a graph
    downscaled by ``scale`` runs ``~scale`` times faster; the projection
    multiplies back.  Only used for cross-graph *ordering* in reports —
    ratios between systems are already scale-free.
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    return sim_seconds * scale


def format_seconds(seconds: float) -> str:
    """Human-readable duration (handles NaN for OOM'd arms)."""
    if not np.isfinite(seconds):
        return "OOM"
    if seconds >= 3600:
        return f"{seconds / 3600:.2f} h"
    if seconds >= 60:
        return f"{seconds / 60:.2f} min"
    if seconds >= 1:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.1f} us"


def format_table(
    headers: list[str], rows: list[list[object]], title: str = ""
) -> str:
    """Render an aligned plain-text table."""
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in text_rows))
        if text_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
