"""Folding a telemetry stream into a forensics report.

One pass over the records: each ``serve_request`` record is one
request's whole tree, built, offered to the bounded
:class:`~repro.obs.forensics.reservoir.ExemplarReservoir`, and either
retained in full or reduced to its root summary.  Aggregate blame
attribution covers *every* request, not just the retained exemplars —
the reservoir bounds tree memory, never the accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.forensics.blame import (
    blame_fractions,
    blame_total,
    merge_blame,
    verify_tree,
)
from repro.obs.forensics.reservoir import ExemplarReservoir
from repro.obs.forensics.tree import (
    INCIDENT_EVENTS,
    RequestTree,
    build_tree,
    incident_overlaps,
    join_incidents,
)

#: Response statuses that carry a latency (everything but shed).
_COMPLETED = ("served", "deadline_exceeded", "failed")


@dataclass
class ForensicsReport:
    """Everything ``repro why`` / ``repro attribute`` render."""

    #: Fully retained trees (reservoir exemplars + force-kept traces).
    trees: dict[str, RequestTree] = field(default_factory=dict)
    #: Root summary of every request seen:
    #: ``{trace_id: {klass, status, fidelity, latency_s, blame, ...}}``.
    summaries: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Per-class blame seconds across all requests.
    attribution: dict[str, dict[str, float]] = field(default_factory=dict)
    incidents: list[dict[str, Any]] = field(default_factory=list)
    reservoir: ExemplarReservoir = field(default_factory=ExemplarReservoir)

    @property
    def n_requests(self) -> int:
        return len(self.summaries)

    def find(self, trace_id: str) -> RequestTree | None:
        return self.trees.get(trace_id)

    def worst(self, n: int, klass: str | None = None) -> list[RequestTree]:
        """Slowest retained exemplars, slowest first."""
        out = []
        for trace_id in self.reservoir.worst(klass):
            tree = self.trees.get(trace_id)
            if tree is not None and tree not in out:
                out.append(tree)
            if len(out) >= n:
                break
        return out

    def fractions(self) -> dict[str, dict[str, float]]:
        """Per-class blame fractions of the aggregate attribution."""
        return {
            klass: blame_fractions(blame)
            for klass, blame in sorted(self.attribution.items())
        }

    def verify(self, rel_tol: float = 1e-9) -> list[dict[str, Any]]:
        """Sum-invariant violations across every request and exemplar."""
        import math

        violations = [
            {
                "trace_id": trace_id,
                "klass": summary["klass"],
                "status": summary["status"],
                "latency_s": summary["latency_s"],
                "blame_total_s": blame_total(summary["blame"]),
                "error_s": blame_total(summary["blame"])
                - summary["latency_s"],
            }
            for trace_id, summary in self.summaries.items()
            if summary["status"] in _COMPLETED
            and not summary.get("partial")
            and not math.isclose(
                blame_total(summary["blame"]),
                summary["latency_s"],
                rel_tol=rel_tol,
                abs_tol=1e-15,
            )
        ]
        for tree in self.trees.values():
            if tree.root.attributes.get("partial"):
                continue
            violation = verify_tree(tree, rel_tol)
            if violation is not None and not any(
                v["trace_id"] == violation["trace_id"] for v in violations
            ):
                violations.append(violation)
        return violations

    def to_payload(self) -> dict[str, Any]:
        """JSON-able view for ``repro attribute --format json`` and CI."""
        return {
            "n_requests": self.n_requests,
            "n_exemplars": len(self.trees),
            "n_incidents": len(self.incidents),
            "attribution_s": {
                klass: dict(sorted(blame.items()))
                for klass, blame in sorted(self.attribution.items())
            },
            "fractions": self.fractions(),
            "exemplars": {
                trace_id: {
                    "klass": tree.klass,
                    "status": tree.status,
                    "latency_s": tree.latency_s,
                    "blame": tree.blame,
                    "incidents": len(tree.incidents),
                }
                for trace_id, tree in sorted(self.trees.items())
            },
        }


def fold_stream(
    records: Iterable[dict[str, Any]],
    worst_k: int = 8,
    sample_k: int = 8,
    seed: int = 0,
    keep: tuple[str, ...] = (),
) -> ForensicsReport:
    """Fold stream records into a :class:`ForensicsReport`.

    ``keep`` force-retains specific trace ids regardless of the
    reservoir's verdict (the ``repro why <trace_id>`` path).
    """
    reservoir = ExemplarReservoir(worst_k=worst_k, sample_k=sample_k, seed=seed)
    report = ForensicsReport(reservoir=reservoir)
    keep_set = set(keep)
    for record in records:
        kind = record.get("type")
        # A version-1 ``serve_request`` carries no ``nodes``: its tree
        # went to separate records this fold no longer reads.
        if kind == "serve_request" and "nodes" in record:
            tree = build_tree(record)
            trace_id = tree.trace_id
            summary = {
                "klass": tree.klass,
                "status": tree.status,
                "fidelity": tree.root.attributes.get("fidelity"),
                "latency_s": tree.latency_s,
                "blame": tree.blame,
                "arrival_s": tree.arrival_s,
                "deadline_s": tree.deadline_s,
                "lookup_seqs": tree.lookup_seqs,
                "partial": bool(tree.root.attributes.get("partial")),
            }
            report.summaries[trace_id] = summary
            merge_blame(report.attribution, tree.klass, tree.blame)
            if summary["status"] in _COMPLETED:
                reservoir.offer(trace_id, tree.klass, tree.latency_s)
            report.trees[trace_id] = tree
            retained = reservoir.retained() | keep_set
            for stale_id in [t for t in report.trees if t not in retained]:
                del report.trees[stale_id]
        elif kind == "shard_event" and record.get("event") in INCIDENT_EVENTS:
            report.incidents.append(record)

    join_incidents(report.trees.values(), report.incidents)
    # Incident context also joins the root summaries, so aggregate views
    # can count incident-correlated requests beyond the exemplars.
    for trace_id, summary in report.summaries.items():
        summary["incidents"] = sum(
            1
            for incident in report.incidents
            if incident_overlaps(
                incident,
                summary["arrival_s"],
                summary["deadline_s"],
                tuple(summary["lookup_seqs"]),
            )
        )
    return report
