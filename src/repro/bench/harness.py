"""Table formatting and projection helpers for the benchmarks.

Every bench prints two things per experiment: the rows/series the paper's
table or figure reports, and (when scaled analogues are involved) the
projection of simulated times back to the original graph scale.
"""

from __future__ import annotations

import numpy as np


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
