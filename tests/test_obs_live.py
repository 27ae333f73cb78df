"""Live telemetry: streaming, partition spans, regrouping, the ops view."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import (
    ExecBackend,
    OMeGaConfig,
    ParallelConfig,
    SpMMEngine,
)
from repro.formats import edges_to_csdb
from repro.graphs import chung_lu_edges, rmat_edges
from repro.obs.export import TelemetrySession
from repro.obs.live import (
    StreamFollower,
    build_top_frame,
    latest_metric_records,
    load_records,
    read_stream,
    render_top,
)
from repro.obs.observatory import build_profile, diff_runs
from repro.obs.observatory.diff import GROUP_PROFILE
from repro.parallel import shutdown_shared_executors

SCALE = 7


@pytest.fixture(scope="module", autouse=True)
def _close_pools():
    yield
    shutdown_shared_executors()


def _streamed_spmm(path, backend=ExecBackend.SHARED_MEMORY, n_workers=2):
    """One real SpMM under a streaming session; returns (session, result)."""
    session = TelemetrySession(meta={"command": "spmm", "graph": "rmat"})
    session.stream_to(path, flush_every=1)
    config = OMeGaConfig(
        n_threads=4,
        dim=4,
        parallel=ParallelConfig(backend=backend, n_workers=n_workers),
    )
    engine = SpMMEngine(
        config, tracer=session.tracer, metrics=session.metrics
    )
    edges = rmat_edges(SCALE, edge_factor=6.0, seed=1)
    matrix = edges_to_csdb(edges, 1 << SCALE)
    dense = np.random.default_rng(0).standard_normal((1 << SCALE, 4))
    result = engine.multiply(matrix, dense, compute=True)
    return session, result


class TestTracePropagation:
    def test_partition_spans_parent_under_spmm_in_the_stream(self, tmp_path):
        path = tmp_path / "run.stream.jsonl"
        session, result = _streamed_spmm(path)
        session.close_stream()

        # One writer, one file: pool workers leave nothing beside it.
        assert list(tmp_path.iterdir()) == [path]
        merged = load_records(path)
        spans = [r for r in merged if r.get("type") == "span"]
        by_id = {s["span_id"]: s for s in spans}
        parts = [s for s in spans if s["name"] == "spmm_partition"]
        assert len(parts) == sum(p.n_rows > 0 for p in result.partitions)

        root_trace = next(s["trace_id"] for s in spans if s["name"] == "spmm")
        for part in parts:
            assert part["trace_id"] == root_trace
            assert by_id[part["parent_id"]]["name"] == "spmm"
            assert part["attributes"]["apportioned"] is True
            assert part["attributes"]["nnz"] > 0

    def test_serial_backend_emits_partition_spans_too(self):
        session = TelemetrySession(meta={"command": "spmm"})
        config = OMeGaConfig(n_threads=4, dim=4)
        engine = SpMMEngine(
            config, tracer=session.tracer, metrics=session.metrics
        )
        edges = rmat_edges(SCALE, edge_factor=6.0, seed=2)
        matrix = edges_to_csdb(edges, 1 << SCALE)
        dense = np.random.default_rng(1).standard_normal((1 << SCALE, 4))
        engine.multiply(matrix, dense, compute=True)
        spans = session.tracer.to_records()
        parts = [s for s in spans if s["name"] == "spmm_partition"]
        assert parts, "serial backend should emit partition spans as well"
        total_nnz = sum(s["attributes"]["nnz"] for s in parts)
        assert total_nnz == matrix.nnz

    def test_merged_profile_preserves_sim_self_sum(self, tmp_path):
        """Zero-sim-width partition spans must not distort sim accounting."""
        path = tmp_path / "run.stream.jsonl"
        session, result = _streamed_spmm(path)
        session.close_stream()
        merged = load_records(path)
        spans = [r for r in merged if r.get("type") == "span"]
        profile = build_profile(spans)
        self_sum = sum(node.sim_self for node in profile.walk())
        assert self_sum == pytest.approx(profile.sim_total)
        assert profile.sim_total == pytest.approx(result.sim_seconds)
        # ...while the partition spans still carry the measured kernel wall.
        part = profile.child("spmm").child("spmm_partition")
        assert part.sim_total == 0.0
        assert part.wall_total > 0.0


class TestStreamReaders:
    def test_read_stream_tolerates_torn_last_line(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "stream_meta", "pid": 1}) + "\n")
            fh.write(json.dumps({"type": "span", "name": "a"}) + "\n")
            fh.write('{"type": "span", "na')  # killed mid-write
        records, skipped = read_stream(path)
        assert [r["type"] for r in records] == ["stream_meta", "span"]
        assert skipped == 1

    def test_follower_retries_partial_line(self, tmp_path):
        path = tmp_path / "grow.jsonl"
        first = json.dumps({"type": "span", "name": "a"})
        second = json.dumps({"type": "span", "name": "b"})
        path.write_text(first + "\n" + second[:7], encoding="utf-8")
        follower = StreamFollower(path)
        assert [r["name"] for r in follower.poll()] == ["a"]
        with path.open("a", encoding="utf-8") as fh:
            fh.write(second[7:] + "\n")
            fh.write(json.dumps({"type": "stream_closed"}) + "\n")
        fresh = follower.poll()
        assert [r.get("name") for r in fresh] == ["b", None]
        assert follower.closed
        assert len(follower.records) == 3

    def test_follower_raises_on_terminated_garbage_line(self, tmp_path):
        """A completed line that is not a JSON object is an error for the
        follower exactly as for :func:`read_stream`, not a silent drop."""
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "span", "name": "a"}) + "\nnot json\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: invalid"):
            read_stream(path)
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: invalid"):
            StreamFollower(path).poll()

    def test_merge_synthesizes_manifest_on_crash(self, tmp_path):
        path = tmp_path / "crashed.stream.jsonl"
        session, _ = _streamed_spmm(path)
        # Simulated writer death: the stream is never closed, so no
        # manifest or stream_closed sentinel reaches the file.
        session.stream.flush()
        merged = load_records(path)
        manifests = [r for r in merged if r.get("type") == "manifest"]
        assert len(manifests) == 1
        assert manifests[0].get("synthesized") is True
        assert not any(r.get("type") == "stream_closed" for r in merged)
        session.close_stream()


class TestServeTraceIds:
    def test_trace_ids_unique_across_requests_and_bursts(self, tmp_path):
        from repro.faults import FaultInjector, FaultPlan
        from repro.memsim.clock import VirtualClock
        from repro.obs.live import TelemetryStream
        from repro.obs.metrics import MetricsRegistry
        from repro.serve import (
            EmbeddingBackend,
            EmbeddingServer,
            RequestTrace,
            ServePolicy,
        )
        from repro.core.embedding import OMeGaEmbedder

        n_nodes = 120
        edges = chung_lu_edges(n_nodes, 700, seed=5)
        metrics = MetricsRegistry()
        embedder = OMeGaEmbedder(
            OMeGaConfig(n_threads=2, dim=8), metrics=metrics
        )
        plan = FaultPlan.random_serve(seed=11, n_events=6)
        injector = FaultInjector(plan, metrics)
        backend = EmbeddingBackend(
            embedder, edges, n_nodes, faults=injector, metrics=metrics
        )
        backend.warm_up()
        per_node = backend.compute_cost(1)
        stream = TelemetryStream(
            tmp_path / "serve.stream.jsonl", flush_every=1
        )
        server = EmbeddingServer(
            backend,
            ServePolicy.calibrated(per_node * 8.5),
            clock=VirtualClock(),
            metrics=metrics,
            faults=injector,
            stream=stream,
        )
        trace = RequestTrace.synthesize(
            seed=3, n_requests=80, per_node_cost_s=per_node
        )
        report = server.run_trace(trace)
        stream.close()

        trace_ids = [r.trace_id for r in report.responses]
        assert all(tid for tid in trace_ids)
        assert len(set(trace_ids)) == len(trace_ids)
        # Burst-injected requests were admitted through the same path,
        # so every response (including shed ones) carries an id.
        assert len(trace_ids) >= 80

        records, _ = read_stream(tmp_path / "serve.stream.jsonl")
        logged = [
            r for r in records if r.get("type") == "serve_request"
        ]
        assert len(logged) == len(report.responses)
        assert {r["trace_id"] for r in logged} == set(trace_ids)
        snapshots = [
            r for r in records if r.get("type") == "serve_snapshot"
        ]
        # One every SNAPSHOT_EVERY (50) responses, plus the final one.
        assert len(snapshots) == len(report.responses) // 50 + 1 >= 2


class TestTopView:
    def _serve_stream(self, tmp_path):
        from repro.cli import main

        edges = chung_lu_edges(80, 400, seed=7)
        edge_file = tmp_path / "graph.txt"
        np.savetxt(edge_file, edges, fmt="%d")
        stream = tmp_path / "serve.stream.jsonl"
        rc = main(
            [
                "serve-sim",
                str(edge_file),
                "--requests",
                "60",
                "--threads",
                "2",
                "--dim",
                "8",
                "--telemetry-out",
                str(stream),
            ]
        )
        assert rc == 0
        return stream

    def test_top_once_renders_live_counters(self, tmp_path, capsys):
        from repro.cli import main

        stream = self._serve_stream(tmp_path)
        capsys.readouterr()
        assert main(["top", str(stream), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "submitted" in out
        assert "breaker=" in out

    def test_frame_matches_stream_counters(self, tmp_path):
        stream = self._serve_stream(tmp_path)
        records, skipped = read_stream(stream)
        assert skipped == 0
        frame = build_top_frame(records)
        assert frame["closed"] is True
        assert frame["submitted"] >= 60
        assert frame["responded"] == frame["submitted"]
        assert frame["n_snapshots"] >= 1
        assert frame["breaker_state"] in ("closed", "open", "half_open")
        rendered = render_top(frame)
        assert "requests" in rendered

    def test_latest_metrics_prefer_final_over_snapshot(self):
        snapshot_metric = {
            "type": "metric",
            "kind": "counter",
            "name": "serve.submitted",
            "labels": {},
            "value": 5.0,
        }
        records = [
            {
                "type": "serve_snapshot",
                "sim_now_s": 1.0,
                "breaker_state": "closed",
                "queue_depth": 0,
                "metrics": [snapshot_metric],
            }
        ]
        assert latest_metric_records(records) == [snapshot_metric]
        final = dict(snapshot_metric, value=9.0)
        assert latest_metric_records(records + [final]) == [final]


class TestDiffProfile:
    def _spans(self, spmm_seconds):
        return [
            {
                "type": "span",
                "span_id": 0,
                "parent_id": None,
                "depth": 0,
                "name": "embed",
                "sim_start": 0.0,
                "sim_seconds": spmm_seconds + 1.0,
                "wall_seconds": 0.0,
            },
            {
                "type": "span",
                "span_id": 1,
                "parent_id": 0,
                "depth": 1,
                "name": "spmm",
                "sim_start": 0.0,
                "sim_seconds": spmm_seconds,
                "wall_seconds": 0.0,
            },
        ]

    def test_profile_rows_gated(self):
        report = diff_runs(
            self._spans(2.0), self._spans(3.0), include_profile=True
        )
        rows = {r.name: r for r in report.rows if r.group == GROUP_PROFILE}
        assert rows["embed;spmm"].status == "regressed"
        assert any(
            r.group == GROUP_PROFILE for r in report.regressions
        )

    def test_profile_off_by_default(self):
        report = diff_runs(self._spans(2.0), self._spans(3.0))
        assert not any(r.group == GROUP_PROFILE for r in report.rows)


class TestTrend:
    def test_series_from_mixed_points(self):
        from repro.obs.observatory import sparkline, trajectory_series

        points = [
            {"stages": {"embed.total": 1.0}},
            {
                "suite": "bench_parallel_scaling",
                "points": [
                    {"backend": "shared_memory", "workers": 2, "speedup": 1.5}
                ],
            },
            {"stages": {"embed.total": 2.0}},
        ]
        series = trajectory_series(points)
        assert series["stages.embed.total"] == [1.0, 2.0]
        assert series["bench_parallel_scaling.shared_memory.w2.speedup"] == [
            1.5
        ]
        spark = sparkline([1.0, 2.0, 3.0])
        assert len(spark) == 3
        assert spark[0] < spark[-1]
        assert len(set(sparkline([4.0, 4.0]))) == 1  # flat series

    def test_render_and_cli(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.observatory import render_trend

        points = [
            {"stages": {"embed.total": 1.0}},
            {"stages": {"embed.total": 1.5}},
        ]
        out = render_trend(points, prefix="stages.")
        assert "stages.embed.total" in out
        assert "+50.0%" in out

        path = tmp_path / "traj.json"
        path.write_text(json.dumps(points), encoding="utf-8")
        assert main(["trend", "--trajectory", str(path)]) == 0
        assert "stages.embed.total" in capsys.readouterr().out

    def test_append_round_trips(self, tmp_path):
        from repro.obs.observatory import (
            append_trajectory_point,
            load_trajectory,
        )

        path = tmp_path / "t.json"
        append_trajectory_point(path, {"stages": {"embed.total": 1.0}})
        append_trajectory_point(path, {"stages": {"embed.total": 2.0}})
        totals = [p["stages"]["embed.total"] for p in load_trajectory(path)]
        assert totals == [1.0, 2.0]

    @pytest.mark.parametrize(
        "text", ['{"stages": {}}', "[1, 2"], ids=["object", "not-json"]
    )
    def test_writer_refuses_what_reader_refuses(self, tmp_path, text):
        from repro.obs.observatory import (
            append_trajectory_point,
            load_trajectory,
        )

        path = tmp_path / "t.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="t.json") as read:
            load_trajectory(path)
        with pytest.raises(ValueError, match="t.json") as write:
            append_trajectory_point(path, {"stages": {"embed.total": 1.0}})
        assert str(write.value) == str(read.value)
        assert path.read_text(encoding="utf-8") == text


class TestEmbedSLOKinds:
    def _metric(self, name, value):
        return {
            "type": "metric",
            "kind": "counter",
            "name": name,
            "labels": {},
            "value": value,
        }

    def _stage_span(self, name, seconds):
        return {
            "type": "span",
            "span_id": 0,
            "name": name,
            "sim_seconds": seconds,
        }

    def test_stage_seconds_objective(self):
        from repro.obs.observatory import SLOObjective, evaluate_slo, SLOSpec

        spec = SLOSpec(
            name="embed",
            objectives=(
                SLOObjective(
                    name="spmm-budget",
                    kind="stage_seconds",
                    target=1.0,
                    stage="spmm",
                ),
            ),
        )
        ok = evaluate_slo([self._stage_span("spmm", 0.5)], spec)
        assert ok.ok and ok.results[0].burn_rate == pytest.approx(0.5)
        bad = evaluate_slo([self._stage_span("spmm", 2.0)], spec)
        assert not bad.ok
        # No matching spans: NaN-pass, not a violation.
        empty = evaluate_slo([self._stage_span("other", 9.0)], spec)
        assert empty.ok

    def test_checkpoint_overhead_objective(self):
        from repro.obs.observatory import SLOObjective, evaluate_slo, SLOSpec

        spec = SLOSpec(
            name="embed",
            objectives=(
                SLOObjective(
                    name="ckpt",
                    kind="checkpoint_overhead_fraction",
                    target=0.1,
                ),
            ),
        )
        records = [
            self._metric("checkpoint.sim_seconds", 0.05),
            self._metric("embed.sim_seconds", 1.0),
        ]
        report = evaluate_slo(records, spec)
        assert report.ok
        assert report.results[0].value == pytest.approx(0.05)
        over = evaluate_slo(
            [
                self._metric("checkpoint.sim_seconds", 0.5),
                self._metric("embed.sim_seconds", 1.0),
            ],
            spec,
        )
        assert not over.ok
        # No embed time at all: NaN-pass.
        assert evaluate_slo(
            [self._metric("checkpoint.sim_seconds", 0.5)], spec
        ).ok

    def test_checkpointed_embed_emits_overhead_metric(self):
        from repro.core.embedding import OMeGaEmbedder
        from repro.memsim.persistence import CheckpointedEmbedder

        edges = chung_lu_edges(90, 500, seed=9)
        embedder = OMeGaEmbedder(OMeGaConfig(n_threads=2, dim=8))
        checkpointed = CheckpointedEmbedder(embedder)
        result = checkpointed.embed_with_checkpoints(edges, 90)
        overhead = embedder.metrics.counter("checkpoint.sim_seconds").value
        assert overhead > 0.0
        assert overhead == result.checkpoint_seconds
