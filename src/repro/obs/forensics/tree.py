"""Reconstructing causal trees from a telemetry stream.

``forensic_span`` records (one batch per request, see
:mod:`repro.obs.forensics.records`) link by ``uid``/``parent_uid``.
This module folds a record list back into :class:`RequestTree` objects
and joins supervisor incidents onto the requests whose deadlines they
overlapped — the "this p99 spike = shard 3 promotion at seq 1041" view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.obs.forensics.records import FORENSIC_RECORD_TYPE, ROOT_NODE

#: Supervisor-driven ``shard_event`` kinds that are incidents (they name
#: a repair or topology action, not routine traffic).
INCIDENT_EVENTS = ("promote", "restart", "shard_abandoned", "reshard")


@dataclass
class ForensicNode:
    """One node of a reconstructed request tree."""

    uid: str
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

    def nodes(self) -> Iterator[ForensicNode]:
        return self.root.walk()


def _node_from_record(record: dict[str, Any]) -> ForensicNode:
    return ForensicNode(
        uid=str(record.get("uid")),
        name=str(record.get("name", "?")),
        category=record.get("category"),
        sim_start=float(record.get("sim_start", 0.0) or 0.0),
        sim_seconds=float(record.get("sim_seconds", 0.0) or 0.0),
        attributes=dict(record.get("attributes") or {}),
    )


def build_tree(spans: Iterable[dict[str, Any]]) -> RequestTree | None:
    """Link one request's ``forensic_span`` batch into a tree.

    Orphans (a ``parent_uid`` that never arrived — a torn stream tail)
    graft onto the root rather than dropping, so a damaged tree still
    accounts for its seconds.  Returns ``None`` when no root survived.
    """
    spans = list(spans)
    nodes: dict[str, ForensicNode] = {}
    trace_id = None
    for record in spans:
        node = _node_from_record(record)
        nodes[node.uid] = node
        if trace_id is None:
            trace_id = record.get("trace_id")
    root = next(
        (
            nodes[str(r.get("uid"))]
            for r in spans
            if r.get("parent_uid") is None and r.get("name") == ROOT_NODE
        ),
        None,
    )
    if root is None:
        return None
    for record in spans:
        uid = str(record.get("uid"))
        if nodes[uid] is root:
            continue
        parent = nodes.get(str(record.get("parent_uid")))
        (parent if parent is not None else root).children.append(nodes[uid])
    return RequestTree(trace_id=str(trace_id), root=root)


def extract_incidents(
    records: Iterable[dict[str, Any]],
) -> list[dict[str, Any]]:
    """Supervisor incident records from a stream, in emission order."""
    return [
        r
        for r in records
        if r.get("type") == "shard_event" and r.get("event") in INCIDENT_EVENTS
    ]


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


def group_forensic_spans(
    records: Iterable[dict[str, Any]],
) -> dict[str, list[dict[str, Any]]]:
    """Group a stream's forensic spans by trace id, order preserved."""
    grouped: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        if record.get("type") != FORENSIC_RECORD_TYPE:
            continue
        trace_id = record.get("trace_id")
        if trace_id is None:
            continue
        grouped.setdefault(str(trace_id), []).append(record)
    return grouped
