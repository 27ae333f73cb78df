"""Differential oracle for a served request's one ledger.

A served request's blame used to be kept beside the serve clock: every
``clock.advance(x)`` in the serving loop was paired by hand with a
``record_*`` call on the request's forensic collector.  That collector,
the request's ledger, is now the only code that advances the clock on
the request's behalf.  The
fixture ``serve_ledger_oracle.json`` beside this file was generated by
the code before that change and is never regenerated by the change
itself: for a seeded monolithic chaos run with a handler-torn request
and for 2-shard runs with a shard crash (with and without a replica),
every ``serve_request`` record, every ``serve.blame_seconds`` series
(by ``float.hex``) and every ``ServeReport.summary()`` must be equal.
The monolithic case was regenerated once since, when the handler-torn
request started to keep its ledger: its record and its class's queue
blame moved, nothing else did.

A record is pinned by the SHA-256 of its canonical JSON line, with the
per-server trace-id token (``req-<token>-``) cut, since that token is
random per server.

Regenerate only when the simulated numbers are meant to move::

    PYTHONPATH=src python tests/test_serve_ledger_oracle.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import pytest

from repro.core import OMeGaConfig, OMeGaEmbedder
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.graphs import chung_lu_edges
from repro.memsim.persistence import StageCheckpointStore
from repro.obs import forensics
from repro.obs.live import TelemetryStream, load_records
from repro.obs.metrics import MetricsRegistry
from repro.serve import EmbeddingServer, RequestTrace, ServePolicy
from repro.serve.backend import EmbeddingBackend
from repro.serve.sharded import ShardedEmbeddingBackend
from repro.shard.store import ShardPolicy
from repro.shard.supervisor import SupervisorPolicy

FIXTURE = Path(__file__).with_name("serve_ledger_oracle.json")
N_NODES = 64
DIM = 8
CASES = (
    "monolithic_torn",
    "sharded_crash/replicas=0",
    "sharded_crash/replicas=1",
)


def _edges():
    return chung_lu_edges(N_NODES, 900, seed=3)


def _trace(backend, seed, n_requests, **kwargs):
    return RequestTrace.synthesize(
        seed=seed,
        n_requests=n_requests,
        per_node_cost_s=backend.compute_cost(1),
        **kwargs,
    )


def _record_digest(record):
    record = dict(record)
    record["trace_id"] = record["trace_id"].rsplit("-", 1)[-1]
    line = json.dumps(record, sort_keys=True)
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def _pin(path, metrics, reports):
    records = [
        r for r in load_records(path) if r.get("type") == "serve_request"
    ]
    return {
        "n_records": len(records),
        "records": [_record_digest(r) for r in records],
        "blame_seconds": [
            [m.labels["klass"], m.labels["category"], float(m.value).hex()]
            for m in metrics.series("serve.blame_seconds")
        ],
        "summaries": [report.summary() for report in reports],
    }


def _monolithic_torn(path):
    """FaultPlan.random_serve stalls either side of the budget, plus one
    handler torn by an exception on the sixth backend call."""
    metrics = MetricsRegistry()
    embedder = OMeGaEmbedder(
        OMeGaConfig(n_threads=2, dim=DIM), metrics=metrics
    )
    backend = EmbeddingBackend(embedder, _edges(), N_NODES, metrics=metrics)
    backend.warm_up()
    policy = ServePolicy.calibrated(
        backend.compute_cost(1) * 8.5, queue_limit=16
    )
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
    with TelemetryStream(path, flush_every=1) as stream:
        server = EmbeddingServer(
            backend, policy, metrics=metrics, faults=injector, stream=stream
        )
        report = server.run_trace(
            _trace(backend, 3, 120, load=1.2, deadline_slack=3.0)
        )
    assert metrics.value("serve.unhandled_exceptions") == 1
    return metrics, [report]


def _sharded_crash(path, n_replicas):
    """Shard 0 crashes three times under supervision; then shard 1 dies
    with nobody to repair it and no checkpoint, so gathers go partial."""
    metrics = MetricsRegistry()
    injector = FaultInjector(
        FaultPlan(
            events=(FaultEvent(kind="shard_crash", site="shard.0", count=3),)
        ),
        metrics,
    )
    embedder = OMeGaEmbedder(
        OMeGaConfig(n_threads=2, dim=DIM), metrics=metrics
    )
    with ShardedEmbeddingBackend(
        embedder,
        _edges(),
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
    ) as backend:
        backend.warm_up()
        policy = ServePolicy.calibrated(backend.compute_cost(1) * 8.5)
        with TelemetryStream(path, flush_every=1) as stream:
            server = EmbeddingServer(
                backend, policy, metrics=metrics, faults=injector,
                stream=stream,
            )
            reports = [server.run_trace(_trace(backend, 11, 40, load=1.1))]
            backend.supervisor = None
            backend.shards.on_failure = None
            host = backend.shards.hosts[1]
            host.inject_crash()
            host.checkpoints = StageCheckpointStore()
            reports.append(server.run_trace(_trace(backend, 12, 20, load=1.1)))
    return metrics, reports


def run_case(name, path):
    if name == "monolithic_torn":
        return _pin(path, *_monolithic_torn(path))
    return _pin(path, *_sharded_crash(path, int(name.rsplit("=", 1)[-1])))


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.usefixtures("no_shard_leftovers")
@pytest.mark.parametrize("name", CASES)
def test_case_matches_parent(name, expected, tmp_path):
    # Compared as the fixture stores it: through JSON.
    pinned = json.loads(json.dumps(run_case(name, tmp_path / "serve.jsonl")))
    assert pinned["n_records"] == expected[name]["n_records"]
    assert pinned["summaries"] == expected[name]["summaries"]
    assert pinned["blame_seconds"] == expected[name]["blame_seconds"]
    assert pinned["records"] == expected[name]["records"]


def test_a_torn_request_keeps_its_ledger(tmp_path):
    """The torn request's queue wait is blamed like any other request's,
    so every record passes the blame-sum check and each class's blame
    counters add up to its latency histogram."""
    path = tmp_path / "serve.jsonl"
    metrics, _ = _monolithic_torn(path)
    records = load_records(path)
    torn = [
        r for r in records if r.get("type") == "serve_request" and r["partial"]
    ]
    assert len(torn) == 1 and torn[0]["status"] == "failed"
    assert torn[0]["blame"] and torn[0]["latency_s"] > 0
    assert forensics.fold_stream(records).verify() == []
    classes = {m.labels["klass"] for m in metrics.series("serve.latency")}
    assert classes
    for klass in classes:
        blame = sum(
            m.value for m in metrics.series("serve.blame_seconds", klass=klass)
        )
        latency = sum(
            m.sum for m in metrics.series("serve.latency", klass=klass)
        )
        assert math.isclose(
            blame, latency, rel_tol=forensics.SUM_REL_TOL
        ), klass


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = {
            name: run_case(name, Path(tmp) / f"{i}.jsonl")
            for i, name in enumerate(CASES)
        }
    FIXTURE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
