"""Tail-latency forensics: causal trees, blame attribution, exemplars.

The load-bearing property: for every request the server resolves —
across seeds, with and without an active fault plan — the forensic
tree reconstructed *purely from the live stream* carries blame that
sums exactly (1e-9 relative) to the request's simulated latency, and
the per-category fractions sum to 1.  Everything else (reservoir
bounds, incident joins, the CLI renderings, the diff/trend plumbing)
hangs off that invariant.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.core import OMeGaConfig, OMeGaEmbedder
from repro.faults import FaultInjector, FaultPlan
from repro.graphs import chung_lu_edges
from repro.obs.export import TELEMETRY_VERSION
from repro.obs.forensics import (
    BLAME_CATEGORIES,
    SUM_REL_TOL,
    ExemplarReservoir,
    TelemetryVersionError,
    blame_fractions,
    build_tree,
    fold_stream,
    render_waterfall,
)
from repro.obs.forensics.records import RequestForensics
from repro.obs.live import TelemetryStream, load_records
from repro.obs.metrics import MetricsRegistry
from repro.serve import EmbeddingServer, RequestTrace, ServePolicy
from repro.serve.backend import EmbeddingBackend

N_NODES = 64
DIM = 8


@pytest.fixture(scope="module")
def edges():
    return chung_lu_edges(N_NODES, 900, seed=3)


def _run_server(edges, stream_path, trace_seed, fault_seed=None, load=1.2):
    """One seeded serve replay with a live stream (none when
    ``stream_path`` is None); returns the report."""
    metrics = MetricsRegistry()
    embedder = OMeGaEmbedder(
        OMeGaConfig(n_threads=2, dim=DIM), metrics=metrics
    )
    injector = None
    if fault_seed is not None:
        plan = FaultPlan.random_serve(seed=fault_seed, n_events=5)
        injector = FaultInjector(plan, metrics)
    backend = EmbeddingBackend(
        embedder, edges, N_NODES, faults=injector, metrics=metrics
    )
    backend.warm_up()
    per_node = backend.compute_cost(1)
    with (
        TelemetryStream(stream_path, flush_every=1)
        if stream_path is not None
        else nullcontext()
    ) as stream:
        server = EmbeddingServer(
            backend,
            ServePolicy.calibrated(per_node * 8.5),
            metrics=metrics,
            faults=injector,
            stream=stream,
        )
        report = server.run_trace(
            RequestTrace.synthesize(
                seed=trace_seed,
                n_requests=80,
                per_node_cost_s=per_node,
                load=load,
            )
        )
    assert metrics.value("serve.unhandled_exceptions") == 0
    return report, metrics


class TestBlameSumInvariant:
    @pytest.mark.parametrize("trace_seed", [3, 5, 11])
    @pytest.mark.parametrize("fault_seed", [None, 7])
    def test_blame_sums_to_latency_for_every_request(
        self, tmp_path, edges, trace_seed, fault_seed
    ):
        path = tmp_path / "serve.live.jsonl"
        report, _ = _run_server(edges, path, trace_seed, fault_seed)
        forensics = fold_stream(load_records(path), worst_k=8)
        # Every submitted request left a tree on the stream.
        assert forensics.n_requests == report.submitted
        assert forensics.verify() == []
        # Cross-check against the server's own latency accounting, not
        # just the tree's root attribute.
        latencies = {
            r.trace_id: r.latency_s
            for r in report.responses
            if r.latency_s is not None
        }
        for trace_id, latency in latencies.items():
            summary = forensics.summaries[trace_id]
            assert math.isclose(
                sum(summary["blame"].values()),
                latency,
                rel_tol=SUM_REL_TOL,
                abs_tol=1e-15,
            )
            assert all(
                category in BLAME_CATEGORIES
                for category in summary["blame"]
            )

    def test_fractions_sum_to_one(self, tmp_path, edges):
        path = tmp_path / "serve.live.jsonl"
        _run_server(edges, path, trace_seed=5, fault_seed=7)
        forensics = fold_stream(load_records(path), worst_k=8)
        checked = 0
        for tree in forensics.trees.values():
            fractions = blame_fractions(tree.blame)
            if not fractions:
                continue
            assert math.isclose(sum(fractions.values()), 1.0, rel_tol=1e-9)
            checked += 1
        assert checked > 0
        for fractions in forensics.fractions().values():
            assert math.isclose(sum(fractions.values()), 1.0, rel_tol=1e-9)

    def test_slowest_requests_reconstruct_full_trees(self, tmp_path, edges):
        path = tmp_path / "serve.live.jsonl"
        report, _ = _run_server(edges, path, trace_seed=3, fault_seed=7)
        forensics = fold_stream(load_records(path), worst_k=16)
        completed = sorted(
            (r for r in report.responses if r.latency_s is not None),
            key=lambda r: r.latency_s,
            reverse=True,
        )
        for response in completed[: max(1, len(completed) // 100)]:
            tree = forensics.find(response.trace_id)
            assert tree is not None
            assert tree.root.children, "tail tree must carry causal nodes"
            assert math.isclose(
                sum(tree.blame.values()),
                response.latency_s,
                rel_tol=SUM_REL_TOL,
                abs_tol=1e-15,
            )

    def test_blame_counters_match_stream_attribution(self, tmp_path, edges):
        """The no-stream path (serve.blame_seconds counters) agrees with
        the stream fold — what `repro diff --attribution` gates."""
        path = tmp_path / "serve.live.jsonl"
        _, metrics = _run_server(edges, path, trace_seed=5, fault_seed=7)
        forensics = fold_stream(load_records(path))
        for klass, blame in forensics.attribution.items():
            for category, seconds in blame.items():
                counter = metrics.value(
                    "serve.blame_seconds", klass=klass, category=category
                )
                assert math.isclose(
                    counter, seconds, rel_tol=1e-9, abs_tol=1e-12
                )


class TestLedger:
    def test_a_replay_without_a_stream_builds_no_node_list(
        self, edges, monkeypatch
    ):
        """The ledger keeps what each charging call was handed; the
        record's six-field nodes are built only when a stream writes
        the record."""
        ledgers = []
        init = RequestForensics.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            ledgers.append(self)

        monkeypatch.setattr(RequestForensics, "__init__", spy)
        report, metrics = _run_server(edges, None, trace_seed=3, fault_seed=7)
        assert len(ledgers) == report.submitted - report.shed
        assert metrics.total("serve.blame_seconds") > 0
        held = [
            item
            for ledger in ledgers
            for slot in type(ledger).__slots__
            if isinstance(getattr(ledger, slot, None), list)
            for item in getattr(ledger, slot)
        ]
        assert held, "the ledgers kept no ladder steps"
        nodes = [i for i in held if isinstance(i, tuple) and len(i) == 6]
        assert nodes == []

    def test_blame_and_clock_are_one_ledger(self, tmp_path, edges):
        """Without a stream the run's blame counters, latencies and
        finishing time are those of the streamed run, bit for bit."""
        path = tmp_path / "serve.live.jsonl"
        streamed, streamed_metrics = _run_server(edges, path, 5, 7)
        plain, plain_metrics = _run_server(edges, None, 5, 7)
        assert plain.summary() == streamed.summary()
        series = [
            (m.labels, m.value.hex())
            for m in plain_metrics.series("serve.blame_seconds")
        ]
        assert series == [
            (m.labels, m.value.hex())
            for m in streamed_metrics.series("serve.blame_seconds")
        ]


class TestServeRequestEnrichment:
    def test_one_record_per_request(self, tmp_path, edges):
        path = tmp_path / "serve.live.jsonl"
        report, _ = _run_server(edges, path, trace_seed=5, fault_seed=7)
        records = load_records(path)
        requests = [r for r in records if r.get("type") == "serve_request"]
        assert sorted(r["trace_id"] for r in requests) == sorted(
            r.trace_id for r in report.responses
        )
        assert not any(r.get("type") == "forensic_span" for r in records)
        served = [r for r in requests if r["status"] == "served"]
        assert served
        for record in served:
            # The queue wait is the queue blame; the rest is execution.
            assert record["nodes"]
            assert math.isclose(
                sum(record["blame"].values()),
                record["latency_s"],
                rel_tol=1e-9,
                abs_tol=1e-15,
            )
        for record in requests:
            if record["status"] == "shed":
                assert record["nodes"] == [] and record["latency_s"] is None

    def test_shed_records_carry_their_requests_budget(
        self, tmp_path, edges
    ):
        path = tmp_path / "serve.live.jsonl"
        report, _ = _run_server(
            edges, path, trace_seed=5, fault_seed=11, load=2.0
        )
        assert report.shed > 0
        # The same trace again: every record's request, burst copies
        # ("<id>.b<i>") included, by id.
        backend = EmbeddingBackend(
            OMeGaEmbedder(OMeGaConfig(n_threads=2, dim=DIM)), edges, N_NODES
        )
        backend.warm_up()
        trace = RequestTrace.synthesize(
            seed=5,
            n_requests=80,
            per_node_cost_s=backend.compute_cost(1),
            load=2.0,
        )
        by_id = {request.request_id: request for request in trace.requests}
        records = [
            r for r in load_records(path) if r.get("type") == "serve_request"
        ]
        assert {r["status"] for r in records} >= {"shed", "served"}
        for record in records:
            request = by_id[record["request_id"].split(".b")[0]]
            assert record["deadline_s"] == request.deadline_s
            assert record["n_nodes"] == request.n_nodes

    def test_old_records_without_breakdown_still_fold(self):
        # A version-1 stream's serve_request records carry no nodes
        # (its trees were separate records): the fold degrades to an
        # empty report instead of failing.
        records = [
            {"type": "stream_meta", "pid": 1},
            {
                "type": "serve_request",
                "status": "served",
                "klass": "interactive",
                "latency_s": 0.01,
            },
        ]
        forensics = fold_stream(records)
        assert forensics.n_requests == 0
        assert forensics.verify() == []

    def test_verify_reports_a_shed_record_with_blame(self, tmp_path, edges):
        """A shed request has no latency and must carry no blame; one
        that does is reported, though the reservoir never retains it."""
        path = tmp_path / "serve.live.jsonl"
        _run_server(edges, path, trace_seed=5, fault_seed=11, load=2.0)
        records = load_records(path)
        shed = next(
            r
            for r in records
            if r.get("type") == "serve_request" and r["status"] == "shed"
        )
        assert fold_stream(records).verify() == []
        shed["blame"] = {"queue": 1e-3}
        forensics = fold_stream(records)
        assert shed["trace_id"] not in forensics.trees
        assert [v["trace_id"] for v in forensics.verify()] == [
            shed["trace_id"]
        ]


class TestIncidentLinkage:
    def test_shard_incident_joins_overlapping_requests(self, tmp_path, edges):
        from repro.faults import FaultEvent
        from repro.serve.sharded import ShardedEmbeddingBackend
        from repro.shard.store import ShardPolicy
        from repro.shard.supervisor import SupervisorPolicy

        metrics = MetricsRegistry()
        embedder = OMeGaEmbedder(
            OMeGaConfig(n_threads=2, dim=DIM), metrics=metrics
        )
        plan = FaultPlan(
            events=(FaultEvent(kind="shard_crash", site="shard.0", count=3),)
        )
        injector = FaultInjector(plan, metrics)
        path = tmp_path / "serve.live.jsonl"
        with ShardedEmbeddingBackend(
            embedder,
            edges,
            N_NODES,
            shard_policy=ShardPolicy(
                n_shards=2, hedge_enabled=True, lookup_deadline_s=0.2
            ),
            supervisor_policy=SupervisorPolicy(),
            faults=injector,
            metrics=metrics,
        ) as backend:
            backend.warm_up()
            per_node = backend.compute_cost(1)
            with TelemetryStream(path, flush_every=1) as stream:
                # The server propagates its stream into the sharded
                # store, so shard_event incidents land next to the
                # request records they explain.
                server = EmbeddingServer(
                    backend,
                    ServePolicy.calibrated(per_node * 8.5),
                    metrics=metrics,
                    faults=injector,
                    stream=stream,
                )
                report = server.run_trace(
                    RequestTrace.synthesize(
                        seed=11,
                        n_requests=80,
                        per_node_cost_s=per_node,
                        load=1.1,
                    )
                )
        forensics = fold_stream(load_records(path), worst_k=8)
        assert forensics.verify() == []
        assert forensics.n_requests == report.submitted
        assert forensics.incidents, "shard crash left no incident record"
        # At least one request's deadline window (or lookup seq) overlaps
        # the incident, and joined trees render the linkage.
        overlapping = [
            s for s in forensics.summaries.values() if s.get("incidents")
        ]
        assert overlapping
        joined = [t for t in forensics.trees.values() if t.incidents]
        if joined:
            rendered = render_waterfall(joined[0])
            assert "!! incident:" in rendered


class TestBackgroundRefresh:
    def test_refresh_seconds_stay_in_the_refresher(
        self, tmp_path, edges, capsys
    ):
        """Background re-checkpoints run beside requests: their seconds
        live only in the refresher's ledger, never in request blame."""
        import numpy as np

        from repro.cli import main
        from repro.serve.sharded import ShardedEmbeddingBackend
        from repro.shard.store import ShardPolicy

        metrics = MetricsRegistry()
        embedder = OMeGaEmbedder(
            OMeGaConfig(n_threads=2, dim=DIM), metrics=metrics
        )
        path = tmp_path / "serve.live.jsonl"
        with ShardedEmbeddingBackend(
            embedder,
            edges,
            N_NODES,
            shard_policy=ShardPolicy(n_shards=2, checkpoint_interval=5),
            supervisor_policy=None,
            metrics=metrics,
        ) as backend:
            backend.warm_up()
            rng = np.random.default_rng(4)
            for _ in range(3):
                ids = rng.choice(N_NODES, size=6, replace=False)
                backend.shards.apply_update(ids, rng.random((6, DIM)))
            per_node = backend.compute_cost(1)
            with TelemetryStream(path, flush_every=1) as stream:
                server = EmbeddingServer(
                    backend,
                    ServePolicy.calibrated(per_node * 8.5),
                    metrics=metrics,
                    stream=stream,
                )
                server.run_trace(
                    RequestTrace.synthesize(
                        seed=2,
                        n_requests=60,
                        per_node_cost_s=per_node,
                        load=1.0,
                    )
                )
            refresher = backend.shards.refresher
            summary = backend.shard_summary()
        assert refresher.bg_checkpoints > 0
        assert refresher.sim_refresh_seconds > 0.0
        assert summary["refresh_sim_seconds"] == refresher.sim_refresh_seconds
        forensics = fold_stream(load_records(path))
        assert forensics.verify() == []
        for blame in forensics.attribution.values():
            assert "checkpointer" not in blame
        capsys.readouterr()
        assert main(["attribute", str(path), "--check"]) == 0
        assert "checkpointer" not in capsys.readouterr().out


class TestExemplarReservoir:
    def test_worst_k_keeps_slowest(self):
        reservoir = ExemplarReservoir(worst_k=3, sample_k=0, seed=0)
        for i in range(20):
            reservoir.offer(f"req-{i:03d}", "interactive", float(i))
        worst = reservoir.worst()
        assert worst[:3] == ["req-019", "req-018", "req-017"]

    def test_per_class_heaps_are_independent(self):
        reservoir = ExemplarReservoir(worst_k=2, sample_k=0, seed=0)
        for i in range(10):
            reservoir.offer(f"i-{i}", "interactive", float(i))
            reservoir.offer(f"b-{i}", "batch", float(10 - i))
        assert set(reservoir.worst("interactive")) == {"i-9", "i-8"}
        assert set(reservoir.worst("batch")) == {"b-0", "b-1"}

    def test_uniform_sample_is_seeded(self):
        def sample(seed):
            reservoir = ExemplarReservoir(worst_k=0, sample_k=4, seed=seed)
            for i in range(50):
                reservoir.offer(f"req-{i}", "interactive", float(i % 7))
            return reservoir.sampled()

        assert sample(1) == sample(1)
        assert sample(1) != sample(2)

    def test_retained_is_bounded(self):
        reservoir = ExemplarReservoir(worst_k=4, sample_k=4, seed=0)
        for i in range(500):
            reservoir.offer(f"req-{i}", "interactive", float(i))
        assert len(reservoir.retained()) <= 8
        assert reservoir.offers == 500


class TestTreeAssembly:
    def test_nodes_hang_under_the_latest_rung(self):
        record = {
            "type": "serve_request",
            "trace_id": "t1",
            "request_id": "r1",
            "klass": "interactive",
            "status": "served",
            "fidelity": "propagation_only",
            "arrival_s": 0.0,
            "deadline_s": 5.0,
            "n_nodes": 4,
            "latency_s": 3.0,
            "stale_rows": 0,
            "blame": {"queue": 1.0, "breaker": 1.0, "kernel": 1.0},
            "lookup_seqs": [],
            "partial": False,
            "nodes": [
                ["queue_wait", "queue", 0.0, 1.0, {}, False],
                ["rung:full", None, 1.0, 1.0,
                 {"outcome": "stall_abandoned"}, False],
                ["stall_burn", "breaker", 1.0, 1.0, {}, True],
                ["rung:propagation_only", None, 2.0, 1.0,
                 {"outcome": "served"}, False],
                ["kernel", "kernel", 2.0, 1.0, {}, True],
            ],
        }
        tree = build_tree(record)
        assert tree.trace_id == "t1" and tree.latency_s == 3.0
        assert [c.name for c in tree.root.children] == [
            "queue_wait", "rung:full", "rung:propagation_only",
        ]
        full, served = tree.root.children[1:]
        assert [c.name for c in full.children] == ["stall_burn"]
        assert [c.name for c in served.children] == ["kernel"]


class TestCli:
    def _make_stream(self, tmp_path, edges):
        path = tmp_path / "serve.live.jsonl"
        report, _ = _run_server(edges, path, trace_seed=5, fault_seed=7)
        return path, report

    def test_why_worst_renders_waterfalls(self, tmp_path, edges, capsys):
        from repro.cli import main

        path, _ = self._make_stream(tmp_path, edges)
        assert main(["why", str(path), "--worst", "2"]) == 0
        out = capsys.readouterr().out
        assert "blame:" in out
        assert "queue" in out or "kernel" in out

    def test_why_by_trace_id(self, tmp_path, edges, capsys):
        from repro.cli import main

        path, report = self._make_stream(tmp_path, edges)
        served = next(
            r for r in report.responses if r.latency_s is not None
        )
        assert main(["why", str(path), served.trace_id]) == 0
        assert served.trace_id in capsys.readouterr().out

    def test_why_unknown_trace_exits(self, tmp_path, edges):
        from repro.cli import main

        path, _ = self._make_stream(tmp_path, edges)
        with pytest.raises(SystemExit):
            main(["why", str(path), "req-nope-000001"])

    def test_attribute_table_and_check(self, tmp_path, edges, capsys):
        from repro.cli import main

        path, _ = self._make_stream(tmp_path, edges)
        assert main(["attribute", str(path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "tail-latency blame" in out

    def test_attribute_json_payload(self, tmp_path, edges, capsys):
        from repro.cli import main

        path, _ = self._make_stream(tmp_path, edges)
        assert main(["attribute", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []
        assert payload["n_requests"] > 0
        for fractions in payload["fractions"].values():
            assert math.isclose(sum(fractions.values()), 1.0, rel_tol=1e-9)


class TestTelemetryVersion:
    def _version_one_file(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        records = [
            {"type": "meta", "telemetry_version": 1},
            {
                "type": "forensic_span",
                "trace_id": "req-00000000-000001",
                "uid": 1,
                "parent_uid": None,
                "name": "request",
                "sim_start": 0.0,
                "sim_seconds": 0.01,
            },
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_the_stream_header_names_the_telemetry_version(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        with TelemetryStream(path):
            pass
        header = load_records(path)[-1]
        assert header["type"] == "stream_meta"
        assert header["telemetry_version"] == TELEMETRY_VERSION
        assert "stream_version" not in header

    def test_a_bare_stream_of_another_version_is_refused(self, tmp_path):
        # A TelemetryStream file has no meta record: its header is the
        # only place the version is written.
        path = self._version_one_file(tmp_path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[0] = {"type": "stream_meta", "telemetry_version": 1}
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(TelemetryVersionError) as raised:
            fold_stream(load_records(path), source=str(path))
        assert raised.value.version == 1

    def test_fold_names_the_file_and_the_version(self, tmp_path):
        path = self._version_one_file(tmp_path)
        with pytest.raises(TelemetryVersionError) as raised:
            fold_stream(load_records(path), source=str(path))
        assert raised.value.version == 1
        assert str(path) in str(raised.value)
        assert "telemetry version 1" in str(raised.value)

    @pytest.mark.parametrize("view", ["why", "attribute"])
    def test_views_refuse_a_version_one_file(self, tmp_path, view):
        path = self._version_one_file(tmp_path)
        argv = [view, str(path)] + (["--check"] if view == "attribute" else [])
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode != 0
        assert "TelemetryVersionError" in done.stderr
        assert f"{path}: telemetry version 1" in done.stderr


class TestObservatoryPlumbing:
    def _blame_records(self, queue, kernel):
        return [
            {
                "type": "metric",
                "kind": "counter",
                "name": "serve.blame_seconds",
                "labels": {"klass": "interactive", "category": "queue"},
                "value": queue,
            },
            {
                "type": "metric",
                "kind": "counter",
                "name": "serve.blame_seconds",
                "labels": {"klass": "interactive", "category": "kernel"},
                "value": kernel,
            },
        ]

    def test_diff_gates_attribution_shift(self):
        from repro.obs.observatory.diff import diff_runs

        # Same totals, shifted mix: only the attribution group sees it.
        report = diff_runs(
            self._blame_records(queue=8.0, kernel=2.0),
            self._blame_records(queue=9.5, kernel=0.5),
            threshold=0.05,
            include_attribution=True,
        )
        regressed = {r.name for r in report.regressions}
        assert "interactive/queue" in regressed

    def test_diff_attribution_off_by_default(self):
        from repro.obs.observatory.diff import diff_runs

        report = diff_runs(
            self._blame_records(queue=8.0, kernel=2.0),
            self._blame_records(queue=9.5, kernel=0.5),
            threshold=0.05,
        )
        assert not any(r.group == "attribution" for r in report.rows)
