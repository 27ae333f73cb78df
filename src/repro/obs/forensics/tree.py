"""Causal trees from ``serve_request`` records.

Each request's record (see :mod:`repro.obs.forensics.records`) carries
its root fields and its nodes in causal order; :func:`build_tree` turns
one record into a :class:`RequestTree`.  This module also joins
supervisor incidents onto the requests whose deadlines they overlapped
— the "this p99 spike = shard 3 promotion at seq 1041" view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.obs.forensics.records import ROOT_NODE

#: Supervisor-driven ``shard_event`` kinds that are incidents (they name
#: a repair or topology action, not routine traffic).
INCIDENT_EVENTS = ("promote", "restart", "shard_abandoned", "reshard")


@dataclass
class ForensicNode:
    """One node of a reconstructed request tree."""

    name: str
    category: str | None
    sim_start: float
    sim_seconds: float
    attributes: dict[str, Any] = field(default_factory=dict)
    children: list["ForensicNode"] = field(default_factory=list)

    def walk(self) -> Iterator["ForensicNode"]:
        """Depth-first traversal, self first."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class RequestTree:
    """One request's reconstructed causal tree plus joined incidents."""

    trace_id: str
    root: ForensicNode
    incidents: list[dict[str, Any]] = field(default_factory=list)

    @property
    def klass(self) -> str:
        return str(self.root.attributes.get("klass", "?"))

    @property
    def status(self) -> str:
        return str(self.root.attributes.get("status", "?"))

    @property
    def latency_s(self) -> float:
        return float(self.root.sim_seconds or 0.0)

    @property
    def blame(self) -> dict[str, float]:
        blame = self.root.attributes.get("blame")
        return dict(blame) if isinstance(blame, dict) else {}

    @property
    def arrival_s(self) -> float:
        return float(self.root.attributes.get("arrival_s", self.root.sim_start))

    @property
    def deadline_s(self) -> float:
        return float(self.root.attributes.get("deadline_s", 0.0))

    @property
    def lookup_seqs(self) -> tuple[int, ...]:
        seqs = self.root.attributes.get("lookup_seqs") or []
        return tuple(int(s) for s in seqs)


#: ``serve_request`` fields that become the root node's attributes.
_ROOT_FIELDS = (
    "request_id",
    "klass",
    "status",
    "fidelity",
    "arrival_s",
    "deadline_s",
    "n_nodes",
    "stale_rows",
    "blame",
    "lookup_seqs",
    "partial",
)


def build_tree(record: dict[str, Any]) -> RequestTree:
    """One request's causal tree from its ``serve_request`` record."""
    latency = record["latency_s"]
    root = ForensicNode(
        name=ROOT_NODE,
        category=None,
        sim_start=record["arrival_s"],
        sim_seconds=latency if latency is not None else 0.0,
        attributes={key: record[key] for key in _ROOT_FIELDS},
    )
    rung = root
    for name, category, start, seconds, attrs, under_rung in record["nodes"]:
        node = ForensicNode(name, category, start, seconds, attrs)
        (rung if under_rung else root).children.append(node)
        if name.startswith("rung:"):
            rung = node
    return RequestTree(trace_id=record["trace_id"], root=root)


def incident_overlaps(
    incident: dict[str, Any],
    arrival_s: float,
    deadline_s: float,
    lookup_seqs: tuple[int, ...],
) -> bool:
    """Did this incident land inside the request's deadline window?

    Primary join: the incident's simulated timestamp falls inside
    ``[arrival, arrival + deadline]``.  Fallback (incidents raised by a
    bare ``supervisor.check()`` with no clock in hand): the incident's
    lookup sequence number matches one of the request's gathers.
    """
    sim_now = incident.get("sim_now_s")
    if sim_now is not None:
        return arrival_s <= float(sim_now) <= arrival_s + deadline_s
    seq = incident.get("seq")
    return seq is not None and int(seq) in lookup_seqs


def join_incidents(
    trees: Iterable[RequestTree], incidents: list[dict[str, Any]]
) -> None:
    """Attach each incident to every request whose window it overlapped."""
    for tree in trees:
        tree.incidents = [
            incident
            for incident in incidents
            if incident_overlaps(
                incident,
                tree.arrival_s,
                tree.deadline_s,
                tree.lookup_seqs,
            )
        ]

