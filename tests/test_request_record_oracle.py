"""Differential oracle for the one-record request format.

Telemetry version 1 wrote a served request as a batch of
``forensic_span`` records (a root plus one record per node, linked by
uid) next to a separate ``serve_request`` record; the reader rebuilt
each tree by uid and reassembled batches per trace.  That writer
(``to_records``), its tree builder and its fold are kept below verbatim
as the reference, so in this module ``fold_stream`` and ``build_tree``
are version 1's; the current ones are reached as
``forensics.fold_stream``.

Each scenario replays a seeded serve run with a live stream while a spy
on :meth:`RequestForensics.to_record` hands the same collector, as the
record it wrote, to the reference writer.  The reference stream is the run's file with each
``serve_request`` record replaced by the batch the reference wrote for
it, so both folds read one run: the trace ids are the same on both
sides and need no normalising.  The report payload, ``verify()``, every
per-request summary, the incidents and the waterfall of every tree must
be equal.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Iterable, Iterator

import pytest

from repro.core import OMeGaConfig, OMeGaEmbedder
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.graphs import chung_lu_edges
from repro.memsim.persistence import StageCheckpointStore
from repro.obs import forensics
from repro.obs.forensics.blame import merge_blame
from repro.obs.forensics.fold import _COMPLETED, ForensicsReport
from repro.obs.forensics.records import ROOT_NODE, RequestForensics
from repro.obs.forensics.reservoir import ExemplarReservoir
from repro.obs.forensics.tree import (
    INCIDENT_EVENTS,
    RequestTree,
    incident_overlaps,
    join_incidents,
)
from repro.obs.live import TelemetryStream, load_records
from repro.obs.metrics import MetricsRegistry
from repro.serve import EmbeddingServer, RequestTrace, ServePolicy
from repro.serve.backend import EmbeddingBackend
from repro.serve.sharded import ShardedEmbeddingBackend
from repro.shard.store import ShardPolicy
from repro.shard.supervisor import SupervisorPolicy

# -- the reference: the two-record writer and its reader, verbatim ---------

FORENSIC_RECORD_TYPE = "forensic_span"

_UID_COUNTER = itertools.count()


def next_forensic_uid() -> str:
    """Process-unique id for one forensic node (what children link by)."""
    return f"f{os.getpid()}-{next(_UID_COUNTER)}"


def to_records(
    self: RequestForensics,
    trace_id: str,
    status: str,
    fidelity: str | None,
    completed_s: float | None,
) -> list[dict[str, Any]]:
    """Serialize the tree: root first, then children in causal order.

    Children of rung nodes point at the most recent rung's uid, so
    the reconstructed tree is request -> rungs -> (kernel / stall /
    shard) leaves.
    """
    root_uid = next_forensic_uid()
    latency = (
        completed_s - self.arrival_s if completed_s is not None else None
    )
    root: dict[str, Any] = {
        "type": FORENSIC_RECORD_TYPE,
        "trace_id": trace_id,
        "uid": root_uid,
        "parent_uid": None,
        "name": ROOT_NODE,
        "category": None,
        "sim_start": self.arrival_s,
        "sim_seconds": latency if latency is not None else 0.0,
        "attributes": {
            "request_id": self.request_id,
            "klass": self.klass,
            "status": status,
            "fidelity": fidelity,
            "arrival_s": self.arrival_s,
            "deadline_s": self.deadline_s,
            "n_nodes": self.n_nodes,
            "blame": dict(self.blame),
            "lookup_seqs": list(self.lookup_seqs),
        },
    }
    if self.partial:
        root["attributes"]["partial"] = True
    records = [root]
    rung_uid = root_uid
    for name, category, start, seconds, attrs, under_rung in self._nodes:
        uid = next_forensic_uid()
        records.append(
            {
                "type": FORENSIC_RECORD_TYPE,
                "trace_id": trace_id,
                "uid": uid,
                "parent_uid": rung_uid if under_rung else root_uid,
                "name": name,
                "category": category,
                "sim_start": start,
                "sim_seconds": seconds,
                "attributes": dict(attrs),
            }
        )
        if name.startswith("rung:"):
            rung_uid = uid
    return records


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
    buffers: dict[str, list[dict[str, Any]]] = {}
    open_trace: str | None = None

    def finalize(trace_id: str) -> None:
        spans = buffers.pop(trace_id, None)
        if not spans:
            return
        tree = build_tree(spans)
        if tree is None:
            return
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

    for record in records:
        kind = record.get("type")
        if kind == FORENSIC_RECORD_TYPE:
            trace_id = str(record.get("trace_id"))
            if record.get("name") == ROOT_NODE and trace_id != open_trace:
                if open_trace is not None:
                    finalize(open_trace)
                open_trace = trace_id
            buffers.setdefault(trace_id, []).append(record)
        elif kind == "shard_event" and record.get("event") in INCIDENT_EVENTS:
            report.incidents.append(record)
    if open_trace is not None:
        finalize(open_trace)
    for trace_id in list(buffers):
        # Out-of-order leftovers (merged multi-writer streams): finalize
        # whatever batches survived.
        finalize(trace_id)

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


# -- the scenarios ---------------------------------------------------------

N_NODES = 64
DIM = 8


@pytest.fixture(scope="module")
def edges():
    return chung_lu_edges(N_NODES, 900, seed=3)


@pytest.fixture
def reference_batches(monkeypatch):
    """Trace id -> the batch the reference writer made of its collector,
    round-tripped through JSON as a version-1 stream did.

    The ledger builds its nodes and lookup sequences only into the
    record, so the reference reads the collector's fields from the
    record the ledger wrote (``_nodes`` is the record's ``nodes``).
    """
    batches: dict[str, list[dict[str, Any]]] = {}
    to_record = RequestForensics.to_record

    def spy(self, trace_id, status, fidelity, completed_s, stale_rows):
        record = to_record(
            self, trace_id, status, fidelity, completed_s, stale_rows
        )
        collector = SimpleNamespace(_nodes=record["nodes"], **record)
        batches[trace_id] = json.loads(
            json.dumps(
                to_records(collector, trace_id, status, fidelity, completed_s),
                sort_keys=True,
            )
        )
        return record

    monkeypatch.setattr(RequestForensics, "to_record", spy)
    return batches


def _replay(server, seed, backend, n_requests, **trace_kwargs):
    server.run_trace(
        RequestTrace.synthesize(
            seed=seed,
            n_requests=n_requests,
            per_node_cost_s=backend.compute_cost(1),
            **trace_kwargs,
        )
    )


def _assert_same_folds(path, batches) -> list[dict[str, Any]]:
    """Fold the run both ways and compare; returns the reference stream."""
    records = load_records(path)
    reference = []
    for record in records:
        if record.get("type") == "serve_request":
            reference.extend(batches.pop(record["trace_id"]))
        else:
            assert record.get("type") != FORENSIC_RECORD_TYPE
            reference.append(record)
    assert not batches, "a collector reached the reference but not the file"
    every = tuple(
        r["trace_id"] for r in records if r.get("type") == "serve_request"
    )
    for keep in ((), every):
        new = forensics.fold_stream(records, keep=keep)
        old = fold_stream(reference, keep=keep)
        assert new.to_payload() == old.to_payload()
        assert new.verify() == old.verify()
        assert new.summaries == old.summaries
        assert new.incidents == old.incidents
        assert sorted(new.trees) == sorted(old.trees)
        for trace_id, tree in new.trees.items():
            assert forensics.render_waterfall(tree) == (
                forensics.render_waterfall(old.trees[trace_id])
            )
    assert len(new.trees) == len(every) == new.n_requests
    return reference


def _outcomes(reference) -> set[str]:
    """What the reference trees hold: statuses, node outcomes, shard legs,
    incidents, and "late" for a request served past its deadline."""
    seen = set()
    late, served = set(), set()
    for record in reference:
        kind = record.get("type")
        if kind == "shard_event":
            seen.add(f"event:{record['event']}")
        if kind != FORENSIC_RECORD_TYPE:
            continue
        attrs = record["attributes"]
        if record["name"] == ROOT_NODE:
            seen.add(f"status:{attrs['status']}")
            if attrs.get("partial"):
                seen.add("partial")
            if attrs["status"] == "deadline_exceeded":
                late.add(record["trace_id"])
        elif record["name"].startswith("shard:"):
            seen.add(f"shard:{attrs['status']}")
        elif "outcome" in attrs:
            seen.add(f"{attrs['outcome']}:{attrs.get('reason', '')}")
            if attrs["outcome"] == "served":
                served.add(record["trace_id"])
        else:
            seen.add(record["name"])
    if late & served:
        seen.add("late")
    return seen


def test_monolithic_chaos_and_a_torn_handler(
    tmp_path, edges, reference_batches
):
    metrics = MetricsRegistry()
    embedder = OMeGaEmbedder(
        OMeGaConfig(n_threads=2, dim=DIM), metrics=metrics
    )
    backend = EmbeddingBackend(embedder, edges, N_NODES, metrics=metrics)
    backend.warm_up()
    policy = ServePolicy.calibrated(
        backend.compute_cost(1) * 8.5, queue_limit=16
    )
    # Stalls either side of the budget: some absorbed, some abandoned.
    budget = policy.stall_budget_s
    plan = FaultPlan.random_serve(
        seed=7, n_events=8, stall_seconds=(0.1 * budget, 1.6 * budget)
    )
    injector = FaultInjector(plan, metrics)
    backend.faults = injector
    serve = backend.serve
    calls = itertools.count()

    def torn(*args, **kwargs):
        if next(calls) == 5:
            raise RuntimeError("handler torn")
        return serve(*args, **kwargs)

    backend.serve = torn
    path = tmp_path / "serve.jsonl"
    with TelemetryStream(path, flush_every=1) as stream:
        server = EmbeddingServer(
            backend, policy, metrics=metrics, faults=injector, stream=stream
        )
        _replay(server, 3, backend, 120, load=1.2, deadline_slack=3.0)
    assert metrics.value("serve.unhandled_exceptions") == 1
    seen = _outcomes(_assert_same_folds(path, reference_batches))
    assert {
        "status:shed",
        "status:served",
        "status:failed",
        "partial",
        "late",
        "queue_wait",
        "stall_absorbed",
        "stall_abandoned:",
        "skipped:breaker_open",
        "skipped:deadline",
    } <= seen


def _sharded(edges, n_replicas, metrics, injector):
    embedder = OMeGaEmbedder(
        OMeGaConfig(n_threads=2, dim=DIM), metrics=metrics
    )
    return ShardedEmbeddingBackend(
        embedder,
        edges,
        N_NODES,
        shard_policy=ShardPolicy(
            n_shards=2,
            n_replicas=n_replicas,
            hedge_enabled=True,
            lookup_deadline_s=0.2,
        ),
        supervisor_policy=SupervisorPolicy(),
        faults=injector,
        metrics=metrics,
    )


@pytest.mark.usefixtures("no_shard_leftovers")
@pytest.mark.parametrize("n_replicas", [0, 1])
def test_sharded_shard_crash(tmp_path, edges, reference_batches, n_replicas):
    metrics = MetricsRegistry()
    plan = FaultPlan(
        events=(FaultEvent(kind="shard_crash", site="shard.0", count=3),)
    )
    injector = FaultInjector(plan, metrics)
    path = tmp_path / "serve.jsonl"
    with _sharded(edges, n_replicas, metrics, injector) as backend:
        backend.warm_up()
        policy = ServePolicy.calibrated(backend.compute_cost(1) * 8.5)
        with TelemetryStream(path, flush_every=1) as stream:
            server = EmbeddingServer(
                backend, policy, metrics=metrics, faults=injector,
                stream=stream,
            )
            _replay(server, 11, backend, 40, load=1.1)
            # Nobody repairs shard 1 now, and its WAL is gone: the full
            # rung's gathers come back partial and the ladder falls.
            backend.supervisor = None
            backend.shards.on_failure = None
            host = backend.shards.hosts[1]
            host.inject_crash()
            host.checkpoints = StageCheckpointStore()
            _replay(server, 12, backend, 20, load=1.1)
    seen = _outcomes(_assert_same_folds(path, reference_batches))
    # A replica takes over (and is promoted); without one the read falls
    # to the checkpoint tier, the shard is restarted, and a shard with
    # neither left skips the full rung.
    assert "shard:fresh" in seen and "status:served" in seen
    if n_replicas:
        assert {"shard:replica", "event:promote"} <= seen
    else:
        assert {
            "shard:stale", "event:restart", "skipped:shard_partial"
        } <= seen
