"""Rendering one request tree as a blame-annotated waterfall.

The ``repro why`` view: every timed node becomes a bar positioned on
the request's ``[arrival, completion]`` interval, indented by tree
depth, annotated with its duration, blame category, and share of the
total latency; joined incidents print as headline lines ("this p99
spike = shard 3 promotion at seq 1041").
"""

from __future__ import annotations

from repro.obs.forensics.blame import (
    blame_fractions,
    blame_total,
    ordered_categories,
)
from repro.obs.forensics.tree import ForensicNode, RequestTree

#: Character width of the waterfall track.
TRACK_WIDTH = 40


def format_seconds(seconds: float) -> str:
    """Compact human duration (simulated seconds)."""
    magnitude = abs(seconds)
    if magnitude == 0.0:
        return "0s"
    if magnitude < 1e-3:
        return f"{seconds * 1e6:.3g}us"
    if magnitude < 1.0:
        return f"{seconds * 1e3:.3g}ms"
    return f"{seconds:.3g}s"


def _bar(start: float, seconds: float, window: float, width: int) -> str:
    if window <= 0.0:
        return "·" * width
    begin = min(max(int(start / window * width), 0), width - 1)
    extent = max(int(round(seconds / window * width)), 1)
    end = min(begin + extent, width)
    return "·" * begin + "█" * (end - begin) + "·" * (width - end)


def _describe(node: ForensicNode) -> str:
    attrs = node.attributes
    bits = []
    if "outcome" in attrs:
        outcome = attrs["outcome"]
        bits.append(
            f"{outcome}:{attrs['reason']}"
            if outcome == "skipped"
            else str(outcome)
        )
    if "status" in attrs:
        bits.append(str(attrs["status"]))
    if "seq" in attrs:
        bits.append(f"seq={attrs['seq']}")
    if "stale_rows" in attrs:
        bits.append(f"stale_rows={attrs['stale_rows']}")
    return f" ({', '.join(bits)})" if bits else ""


def describe_incident(incident: dict) -> str:
    """One headline line for a joined supervisor incident."""
    where = []
    if incident.get("seq") is not None:
        where.append(f"seq {incident['seq']}")
    if incident.get("sim_now_s") is not None:
        where.append(f"t={format_seconds(float(incident['sim_now_s']))}")
    suffix = f" at {', '.join(where)}" if where else ""
    detail = []
    if incident.get("lost_versions"):
        detail.append(f"lost_versions={incident['lost_versions']}")
    if incident.get("recovery_s"):
        detail.append(
            f"recovery={format_seconds(float(incident['recovery_s']))}"
        )
    tail = f" [{', '.join(detail)}]" if detail else ""
    return (
        f"shard {incident.get('shard', '?')}"
        f" {incident.get('event', '?')} ({incident.get('reason', '?')})"
        f"{suffix}{tail}"
    )


def render_waterfall(tree: RequestTree, width: int = TRACK_WIDTH) -> str:
    """Plain-text waterfall of one request's causal tree."""
    root = tree.root
    latency = tree.latency_s
    lines = [
        f"{tree.trace_id}  {tree.klass}  {tree.status}"
        + (
            f"/{root.attributes['fidelity']}"
            if root.attributes.get("fidelity")
            else ""
        )
        + f"  latency={format_seconds(latency)}"
        + f"  deadline={format_seconds(tree.deadline_s)}",
    ]
    blame = tree.blame
    fractions = blame_fractions(blame)
    if fractions:
        parts = [
            f"{category} {fractions[category] * 100:.1f}%"
            for category in ordered_categories(fractions)
        ]
        lines.append(
            f"  blame: {' · '.join(parts)}"
            f"  (sum {format_seconds(blame_total(blame))})"
        )
    for incident in tree.incidents:
        lines.append(f"  !! incident: {describe_incident(incident)}")

    def emit(node: ForensicNode, depth: int) -> None:
        share = (
            f" {node.sim_seconds / latency * 100:5.1f}%"
            if latency > 0.0 and node.sim_seconds > 0.0
            else "      "
        )
        category = f" [{node.category}]" if node.category else ""
        bar = _bar(
            node.sim_start - tree.arrival_s,
            node.sim_seconds,
            latency,
            width,
        )
        indent = "  " * depth
        lines.append(
            f"  {bar} {share} {indent}{node.name}"
            f" {format_seconds(node.sim_seconds)}{category}"
            f"{_describe(node)}"
        )
        for child in node.children:
            emit(child, depth + 1)

    for child in root.children:
        emit(child, 0)
    return "\n".join(lines)
