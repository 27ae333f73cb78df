"""Integration tests: telemetry through the pipeline, export and report.

The load-bearing assertion (ISSUE 1 acceptance): an instrumented
``OMeGaEmbedder.embed`` emits the five ``SPMM_CATEGORIES`` summary spans
and their simulated seconds agree with ``CostTrace.breakdown()`` to
1e-9 — both in memory and after a JSONL round trip.
"""

import numpy as np
import pytest

from repro.bench.harness import run_experiment, telemetry_session
from repro.cli import main
from repro.core import OMeGaConfig, OMeGaEmbedder, SpMMEngine
from repro.formats import edges_to_csdb
from repro.graphs import chung_lu_edges, save_edge_list
from repro.memsim.trace import SPMM_CATEGORIES, CostTrace
from repro.obs import (
    MetricsRegistry,
    SpanTracer,
    TelemetrySession,
    load_records,
    merged_cost_trace,
    render_report,
    spmm_step_breakdown,
    split_records,
)


@pytest.fixture
def small_edges():
    return chung_lu_edges(300, 1500, seed=3)


def instrumented_embed(edges, n_nodes=300, **overrides):
    session = TelemetrySession(meta={"test": "integration"})
    config = OMeGaConfig(n_threads=4, dim=8, **overrides)
    embedder = OMeGaEmbedder(
        config, tracer=session.tracer, metrics=session.metrics
    )
    result = embedder.embed_edges(edges, n_nodes)
    session.add_cost_trace("embed", result.trace)
    return session, result


class TestEmbedderTelemetry:
    def test_spmm_category_spans_match_cost_trace(self, small_edges):
        session, result = instrumented_embed(small_edges)
        for category in SPMM_CATEGORIES:
            spans = session.tracer.find(category)
            assert len(spans) == 1, category
            assert spans[0].sim_seconds == pytest.approx(
                result.trace.seconds(category), abs=1e-9
            )

    def test_root_span_matches_sim_seconds(self, small_edges):
        session, result = instrumented_embed(small_edges)
        root = session.tracer.find("embed")[0]
        assert root.sim_seconds == pytest.approx(result.sim_seconds, abs=1e-9)
        assert root.attributes["n_spmm"] == result.n_spmm

    def test_pipeline_stage_spans_present(self, small_edges):
        session, _ = instrumented_embed(small_edges)
        names = {s.name for s in session.tracer.finished}
        for stage in (
            "graph_read", "factorization", "tsvd", "smf_matrix",
            "propagation", "laplacian", "chebyshev_filter", "densify",
            "spmm", "spmm_steps",
        ):
            assert stage in names, stage

    def test_stage_spans_partition_the_sim_time(self, small_edges):
        session, result = instrumented_embed(small_edges)
        tracer = session.tracer
        stages = ("graph_read", "factorization", "propagation")
        total = sum(tracer.find(s)[0].sim_seconds for s in stages)
        assert total == pytest.approx(result.sim_seconds, abs=1e-9)

    def test_wofp_counters_nonzero_with_prefetch(self, small_edges):
        session, _ = instrumented_embed(small_edges)
        assert session.metrics.value("wofp.hit_nnz") > 0
        assert session.metrics.value("wofp.miss_nnz") > 0
        assert session.metrics.value("wofp.pinned_bytes") > 0

    def test_wofp_counters_zero_without_prefetch(self, small_edges):
        session, _ = instrumented_embed(
            small_edges, prefetcher_enabled=False
        )
        assert session.metrics.value("wofp.hit_nnz") == 0.0
        assert session.metrics.total("wofp.plans") > 0  # disabled plans

    def test_asl_exposure_matches_stream_ledger(self, small_edges):
        session, result = instrumented_embed(small_edges)
        exposed = session.metrics.value("asl.exposed_seconds")
        assert exposed == pytest.approx(
            result.trace.seconds("stream_load"), abs=1e-9
        )
        assert session.metrics.value("asl.hidden_seconds") >= 0.0

    def test_eata_partition_gauges(self, small_edges):
        session, _ = instrumented_embed(small_edges)
        assert session.metrics.value("eata.partitions") == 4
        for thread in range(4):
            z = session.metrics.value("eata.partition.z_entropy", thread=thread)
            assert 0.0 <= z <= 1.0
        assert session.metrics.total("eata.allocations") > 0


class TestEngineTelemetry:
    def test_spmm_span_per_multiply(self, small_edges):
        tracer, metrics = SpanTracer(), MetricsRegistry()
        engine = SpMMEngine(
            OMeGaConfig(n_threads=4, dim=8), tracer=tracer, metrics=metrics
        )
        matrix = edges_to_csdb(small_edges, 300)
        dense = np.random.default_rng(0).standard_normal((300, 8))
        result = engine.multiply(matrix, dense)
        (span,) = tracer.find("spmm")
        assert span.sim_seconds == pytest.approx(result.sim_seconds, abs=1e-12)
        assert span.attributes["nnz"] == matrix.nnz
        assert metrics.value("spmm.calls") == 1
        assert metrics.value("spmm.nnz") == matrix.nnz


class TestCostTraceRoundTrip:
    def test_to_from_dict(self):
        trace = CostTrace()
        trace.charge("read_index", 1.25, nbytes=64.0)
        trace.charge("accumulate", 0.5)
        clone = CostTrace.from_dict(trace.to_dict())
        assert clone.breakdown() == trace.breakdown()
        assert clone.bytes_moved("read_index") == 64.0

    def test_merge_of_per_thread_ledgers_round_trips(self):
        a, b = CostTrace(), CostTrace()
        a.charge("x", 1.0, nbytes=10.0)
        b.charge("x", 2.0, nbytes=20.0)
        b.charge("y", 3.0)
        merged = CostTrace.from_dict(a.to_dict())
        merged.merge(CostTrace.from_dict(b.to_dict()))
        assert merged.seconds("x") == 3.0
        assert merged.bytes_moved("x") == 30.0
        assert merged.seconds("y") == 3.0


class TestExportAndReport:
    def test_jsonl_round_trip_preserves_breakdown(self, tmp_path, small_edges):
        session, result = instrumented_embed(small_edges)
        path = session.save(tmp_path / "t.jsonl")
        records = load_records(path)
        groups = split_records(records)
        assert groups["meta"][0]["telemetry_version"] == 1
        assert groups["span"] and groups["metric"] and groups["cost_trace"]
        restored = merged_cost_trace(records)
        for category, seconds in result.trace.breakdown().items():
            assert restored.seconds(category) == pytest.approx(
                seconds, abs=1e-9
            )

    def test_spmm_step_breakdown_matches(self, tmp_path, small_edges):
        session, result = instrumented_embed(small_edges)
        path = session.save(tmp_path / "t.jsonl")
        breakdown = spmm_step_breakdown(load_records(path))
        for category in SPMM_CATEGORIES:
            assert breakdown[category] == pytest.approx(
                result.trace.seconds(category), abs=1e-9
            )

    def test_render_report_contains_tables(self, tmp_path, small_edges):
        session, _ = instrumented_embed(small_edges)
        path = session.save(tmp_path / "t.jsonl")
        text = render_report(load_records(path))
        assert "SpMM step breakdown" in text
        for category in SPMM_CATEGORIES:
            assert category in text
        assert "wofp.hit_nnz" in text
        assert "Pipeline spans" in text

    def test_span_only_records_fall_back(self):
        tracer = SpanTracer()
        for category in SPMM_CATEGORIES:
            tracer.record(category, sim_seconds=1.0)
        restored = merged_cost_trace(tracer.to_records())
        assert restored.total_seconds == pytest.approx(5.0)

    def test_empty_file_reports_gracefully(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert "no spans" in render_report(load_records(path))

    def test_invalid_jsonl_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="invalid telemetry"):
            load_records(path)


class TestCliTelemetry:
    def test_embed_telemetry_and_report(self, tmp_path, capsys):
        graph = tmp_path / "graph.txt"
        save_edge_list(graph, chung_lu_edges(120, 600, seed=0))
        out = tmp_path / "t.jsonl"
        code = main(
            [
                "embed", str(graph), "--threads", "2", "--dim", "8",
                "--telemetry-out", str(out),
            ]
        )
        assert code == 0
        assert "telemetry written" in capsys.readouterr().out
        # Acceptance: report totals agree with the exported ledger.
        records = load_records(out)
        breakdown = spmm_step_breakdown(records)
        (ledger,) = split_records(records)["cost_trace"]
        for category in SPMM_CATEGORIES:
            assert breakdown[category] == pytest.approx(
                ledger["seconds"][category], abs=1e-9
            )
        hit = sum(
            m["value"]
            for m in split_records(records)["metric"]
            if m["name"] == "wofp.hit_nnz"
        )
        assert hit > 0
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "SpMM step breakdown" in text
        assert "read_index" in text

    def test_spmm_telemetry(self, tmp_path, capsys):
        graph = tmp_path / "graph.txt"
        save_edge_list(graph, chung_lu_edges(120, 600, seed=0))
        out = tmp_path / "s.jsonl"
        code = main(
            ["spmm", str(graph), "--threads", "2", "--telemetry-out", str(out)]
        )
        assert code == 0
        names = {s["name"] for s in split_records(load_records(out))["span"]}
        assert "spmm" in names


class TestHarnessTelemetry:
    def test_run_experiment_records_span_and_ledger(self, small_edges):
        session = telemetry_session(bench="unit")
        config = OMeGaConfig(n_threads=2, dim=8)
        matrix = edges_to_csdb(small_edges, 300)
        dense = np.random.default_rng(0).standard_normal((300, 8))
        engine = SpMMEngine(config)

        result = run_experiment(
            "one_spmm", engine.multiply, matrix, dense, session=session
        )
        (span,) = session.tracer.find("one_spmm")
        assert span.sim_seconds == pytest.approx(result.sim_seconds)
        assert session.cost_trace("one_spmm") is not None
        assert session.meta == {"bench": "unit"}

    def test_run_experiment_without_session_is_passthrough(self):
        assert run_experiment("noop", lambda: 42) == 42
