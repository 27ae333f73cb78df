"""``repro report`` renderers against adversarial telemetry inputs.

A telemetry file may be truncated, hand-edited, produced by an older
schema, or interleaved from multiple writers; every renderer must still
produce *something* rather than raise.
"""

import pytest

from repro.obs.report import (
    merged_cost_trace,
    render_report,
    render_report_file,
    split_records,
    spmm_step_breakdown,
)


class TestSplitRecords:
    def test_empty(self):
        groups = split_records([])
        assert groups["span"] == [] and groups["meta"] == []

    def test_unknown_types_bucketed(self):
        groups = split_records([{"type": "mystery"}, {}])
        assert groups["mystery"] == [{"type": "mystery"}]
        assert groups["unknown"] == [{}]


class TestRenderReportAdversarial:
    def test_empty_records(self):
        text = render_report([])
        assert "no spans" in text

    def test_meta_only(self):
        text = render_report([{"type": "meta", "graph": "LJ"}])
        assert "graph=LJ" in text
        assert "no spans" in text

    def test_manifest_only(self):
        text = render_report(
            [{"type": "manifest", "run_id": "abc", "git_sha": "s"}]
        )
        assert "manifest: run abc" in text
        assert "no spans" in text

    def test_span_missing_every_field(self):
        text = render_report([{"type": "span"}])
        assert "<unnamed>" in text

    def test_span_with_null_timings(self):
        records = [
            {"type": "span", "name": "op", "sim_seconds": None,
             "wall_seconds": None},
        ]
        assert "op" in render_report(records)

    def test_metric_records_missing_keys(self):
        records = [
            {"type": "metric", "kind": "counter"},  # no name/value
            {"type": "metric", "kind": "gauge", "name": "g", "value": None},
            {"type": "metric", "kind": "histogram", "name": "h",
             "count": 0, "sum": None, "min": None, "max": None},
            {"type": "metric"},  # no kind at all
        ]
        text = render_report(records)
        assert "<unnamed>" in text and "g" in text

    def test_mixed_schema_stream(self):
        records = [
            {"type": "meta", "telemetry_version": 1},
            {"type": "span", "name": "a", "sim_seconds": 1.0,
             "wall_seconds": 0.1, "span_id": 0, "parent_id": None,
             "depth": 0, "sim_start": 0.0},
            {"type": "span", "name": "b"},  # schema-less sibling
            {"type": "metric", "kind": "counter", "name": "c", "value": 2},
            {"type": "event", "name": "e"},
            {"type": "future_record_kind", "payload": [1, 2, 3]},
            {},
        ]
        text = render_report(records)
        assert "a" in text and "1 event(s)" in text

    def test_error_span_marked(self):
        records = [
            {"type": "span", "name": "boom", "status": "error",
             "sim_seconds": 0.0, "wall_seconds": 0.0},
        ]
        assert "boom !" in render_report(records)

    def test_cost_trace_fallback_from_spans(self):
        # Producers without a cost_trace record: leaf spans named after
        # the Algorithm 1 steps stand in.
        records = [
            {"type": "span", "name": "read_index", "sim_seconds": 2.0},
            {"type": "span", "name": "read_index"},  # missing timing
        ]
        trace = merged_cost_trace(records)
        assert trace.seconds("read_index") == pytest.approx(2.0)
        steps = spmm_step_breakdown(records)
        assert steps["read_index"] == pytest.approx(2.0)

    def test_render_file_roundtrip(self, tmp_path):
        import json

        path = tmp_path / "t.jsonl"
        rows = [
            {"type": "meta", "graph": "PK"},
            {"type": "span", "name": "op", "sim_seconds": 1.0,
             "wall_seconds": 0.0},
        ]
        path.write_text(
            "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
        )
        assert "op" in render_report_file(path)

    def test_invalid_jsonl_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            render_report_file(path)

    def test_hot_span_table_absent_without_self_time(self):
        records = [{"type": "span", "name": "zero"}]
        text = render_report(records)
        assert "Hot spans" not in text

    def test_hot_span_table_present_with_real_spans(self):
        records = [
            {"type": "span", "name": "hot", "span_id": 0, "parent_id": None,
             "sim_start": 0.0, "sim_seconds": 3.0, "wall_seconds": 0.0},
        ]
        text = render_report(records)
        assert "Hot spans" in text and "hot" in text


class TestTopFrameAdversarial:
    """``repro top`` over snapshots that lack their header fields."""

    def test_bare_snapshot_renders_with_defaults(self):
        from repro.obs.live import build_top_frame, render_top

        frame = build_top_frame([{"type": "serve_snapshot"}])
        assert frame["sim_now_s"] == 0.0
        assert frame["breaker_state"] == "-"
        assert frame["queue_depth"] == 0
        assert "breaker=-  queue_depth=0" in render_top(frame)

    def test_rate_path_tolerates_missing_fields(self):
        from repro.obs.live import build_top_frame, render_top

        counter = {"type": "metric", "kind": "counter",
                   "name": "serve.submitted", "value": 4.0}
        records = [
            {"type": "serve_snapshot", "metrics": []},
            {"type": "serve_snapshot", "sim_now_s": 2.0,
             "metrics": [counter]},
        ]
        frame = build_top_frame(records)
        assert frame["req_rate"] == pytest.approx(2.0)
        assert frame["breaker_state"] == "-"
        assert "submitted" in render_top(frame)
