"""The ``BENCH_omega.json`` trajectory: its format, writer and trends.

The trajectory is a JSON list of points.  This module owns the file:
:func:`read_points` and :func:`write_points` are its one raw reader and
writer, :func:`load_trajectory` gives the points ``repro trend`` reads,
and the ``benchmarks/`` scripts append their results through
:func:`append_trajectory_point` (``bench_online_resilience`` merges a
rerun into its commit's entry instead, through the raw pair, so an
element it does not know survives the rewrite).  A file that is not a
JSON list is refused, naming it, and left untouched.
``repro trend`` turns the points (perf-gate points with their
``stages`` dicts, ``bench_parallel_scaling`` points with nested
per-worker measurements, ``benchmarks/pairs.py --record`` entries)
into per-series trajectories and renders each
as a first/last/delta row with a unicode sparkline — the ten-second
answer to "is the cost model drifting commit over commit?".

The trajectory is heterogeneous by design: every producer appends its
own point shape.  Series extraction is therefore shape-aware but
lenient — unknown point shapes contribute nothing rather than failing,
so a new producer never breaks ``repro trend`` retroactively.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

#: Default trajectory file, at the repository root.
DEFAULT_TRAJECTORY = Path(__file__).resolve().parents[4] / "BENCH_omega.json"

#: Ramp used for sparklines, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"


def read_points(path: str | Path) -> list[Any]:
    """The JSON list at ``path`` as stored (``[]`` when there is no
    file); ``ValueError`` naming the file when it holds anything else."""
    path = Path(path)
    if not path.is_file():
        return []
    try:
        loaded = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError included
        raise ValueError(f"trajectory {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, list):
        raise ValueError(
            f"trajectory {path} is not a JSON list (got {type(loaded).__name__})"
        )
    return loaded


def load_trajectory(path: str | Path) -> list[dict[str, Any]]:
    """Load a trajectory file; missing file is an empty history."""
    return [p for p in read_points(path) if isinstance(p, dict)]


def write_points(path: str | Path, points: list[Any]) -> None:
    """Write ``points`` as the whole trajectory file at ``path``."""
    Path(path).write_text(json.dumps(points, indent=2) + "\n", encoding="utf-8")


def append_trajectory_point(
    path: str | Path, point: dict[str, Any]
) -> None:
    """Append one point to a trajectory file.

    A file :func:`load_trajectory` would refuse raises the same
    ``ValueError`` and is left untouched.
    """
    points = read_points(path)
    points.append(point)
    write_points(path, points)


def extract_point_series(point: dict[str, Any]) -> dict[str, float]:
    """Flatten one trajectory point into named numeric series.

    Points with a ``stages`` dict (the perf-gate history) contribute
    ``stages.<name>``; benchmark points with a nested ``points`` list
    (``bench_parallel_scaling``) contribute
    ``<suite>.<backend>.w<workers>.<field>``; a ``pairs`` entry
    (``benchmarks/pairs.py --record``, schema 1) contributes
    ``pairs.<workload>.<metric>.ratio``, the change's median over the
    parent's.  Anything unrecognized is skipped.
    """
    out: dict[str, float] = {}
    if point.get("suite") == "pairs" and point.get("schema") == 1:
        for name, row in point["metrics"].items():
            (_, parent, _), (_, change, _) = row["parent"], row["change"]
            if parent:
                out[f"pairs.{point['workload']}.{name}.ratio"] = change / parent
        return out
    stages = point.get("stages")
    if isinstance(stages, dict):
        for name, value in stages.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f"stages.{name}"] = float(value)
    inner = point.get("points")
    if isinstance(inner, list):
        suite = point.get("suite") or "bench"
        for sub in inner:
            if not isinstance(sub, dict):
                continue
            backend = sub.get("backend", "?")
            workers = sub.get("workers", "?")
            for field in (
                "kernel_wall_s",
                "cold_wall_s",
                "plan_overhead_s",
                "speedup",
            ):
                value = sub.get(field)
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    out[f"{suite}.{backend}.w{workers}.{field}"] = float(value)
    return out


def trajectory_series(
    points: list[dict[str, Any]],
) -> dict[str, list[float]]:
    """Per-series value sequences, in trajectory (append) order.

    A series only advances on points that carry it, so perf-gate and
    benchmark histories interleave without padding each other with
    gaps.
    """
    series: dict[str, list[float]] = {}
    for point in points:
        for name, value in extract_point_series(point).items():
            series.setdefault(name, []).append(value)
    return series


def sparkline(values: list[float]) -> str:
    """Min-max scaled unicode sparkline; flat series render mid-ramp."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return SPARK_CHARS[len(SPARK_CHARS) // 2] * len(values)
    span = hi - lo
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(SPARK_CHARS) - 1))
        out.append(SPARK_CHARS[idx])
    return "".join(out)


def render_trend(
    points: list[dict[str, Any]], prefix: str | None = None
) -> str:
    """Plain-text trend table over a loaded trajectory.

    ``prefix`` filters the series (``stages.`` shows only the perf-gate
    history).  Each row: series, sample count, first, last, relative
    change first->last, sparkline.
    """
    from repro.bench.harness import format_table

    series = trajectory_series(points)
    if prefix:
        series = {k: v for k, v in series.items() if k.startswith(prefix)}
    if not series:
        return "no trajectory series" + (
            f" matching prefix {prefix!r}" if prefix else ""
        )
    rows = []
    for name in sorted(series):
        values = series[name]
        first, last = values[0], values[-1]
        if first != 0.0:
            delta = f"{(last - first) / abs(first) * 100:+.1f}%"
        else:
            delta = "-"
        rows.append(
            [
                name,
                str(len(values)),
                f"{first:.6g}",
                f"{last:.6g}",
                delta,
                sparkline(values),
            ]
        )
    return format_table(
        ["series", "n", "first", "last", "delta", "trend"],
        rows,
        title=f"trajectory trends ({len(points)} points)",
    )
