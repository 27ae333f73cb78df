"""Telemetry diffing between two exported runs."""

import pytest

from repro.obs.export import TelemetrySession
from repro.obs.observatory.diff import (
    STATUS_ADDED,
    STATUS_IMPROVED,
    STATUS_REGRESSED,
    STATUS_REMOVED,
    STATUS_UNCHANGED,
    DeltaRow,
    diff_runs,
    extract_metric_values,
    extract_stage_seconds,
    render_diff,
)


def _span(name, sim, span_id=0):
    return {
        "type": "span",
        "name": name,
        "span_id": span_id,
        "parent_id": None,
        "sim_seconds": sim,
        "sim_start": 0.0,
        "wall_seconds": 0.0,
    }


def _counter(name, value, **labels):
    return {
        "type": "metric",
        "kind": "counter",
        "name": name,
        "labels": labels,
        "value": value,
    }


class TestExtractors:
    def test_stage_seconds_aggregates_by_name(self):
        records = [_span("a", 1.0, 0), _span("a", 2.0, 1), _span("b", 4.0, 2)]
        assert extract_stage_seconds(records) == {"a": 3.0, "b": 4.0}

    def test_stage_seconds_skips_malformed(self):
        records = [{"type": "span"}, {"type": "metric", "name": "x"}]
        assert extract_stage_seconds(records) == {}

    def test_metric_values_labelled(self):
        records = [
            _counter("hits", 3.0, kind="degree"),
            _counter("hits", 1.0),
            {"type": "metric", "kind": "histogram", "name": "h"},
        ]
        values = extract_metric_values(records)
        assert values == {"hits{kind=degree}": 3.0, "hits": 1.0}


class TestDiffRuns:
    def test_statuses(self):
        a = [_span("same", 1.0, 0), _span("worse", 1.0, 1),
             _span("better", 1.0, 2), _span("gone", 1.0, 3)]
        b = [_span("same", 1.0, 0), _span("worse", 2.0, 1),
             _span("better", 0.5, 2), _span("new", 1.0, 3)]
        report = diff_runs(a, b, threshold=0.05)
        by_name = {r.name: r.status for r in report.rows if r.group == "stage"}
        assert by_name == {
            "same": STATUS_UNCHANGED,
            "worse": STATUS_REGRESSED,
            "better": STATUS_IMPROVED,
            "gone": STATUS_REMOVED,
            "new": STATUS_ADDED,
        }
        assert [r.name for r in report.regressions] == ["worse"]

    def test_threshold_boundary(self):
        a, b = [_span("s", 1.0)], [_span("s", 1.05)]
        # Exactly at threshold: not a regression (strict inequality).
        assert diff_runs(a, b, threshold=0.05).regressions == []
        assert diff_runs(a, b, threshold=0.04).regressions != []

    def test_metrics_never_gated(self):
        a, b = [_counter("c", 1.0)], [_counter("c", 100.0)]
        report = diff_runs(a, b)
        (row,) = [r for r in report.rows if r.group == "metric"]
        assert row.status == STATUS_UNCHANGED
        assert report.regressions == []

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            diff_runs([], [], threshold=-0.1)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        # Both used to pass every series: nothing exceeds a * (1 + nan).
        a, b = [_span("s", 1.0)], [_span("s", 100.0)]
        with pytest.raises(ValueError, match=repr(threshold)):
            diff_runs(a, b, threshold=threshold)

    @pytest.mark.parametrize("sim", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_span_regresses(self, sim):
        a = [_span("s", 1.0, 0), _span("t", 1.0, 1)]
        b = [_span("s", sim, 0), _span("t", 1.0, 1)]
        report = diff_runs(a, b)
        assert [r.name for r in report.regressions] == ["s"]
        assert "REGRESSED (1): stage:s" in render_diff(report)

    def test_non_finite_baseline_regresses(self):
        # A NaN baseline used to hide the candidate: b > nan is False.
        a = [_span("x", float("nan"), 0), _span("t", 1.0, 1)]
        b = [_span("x", 100.0, 0), _span("t", 1.0, 1)]
        report = diff_runs(a, b)
        assert [r.name for r in report.regressions] == ["x"]
        assert "REGRESSED (1): stage:x" in render_diff(report)

    def test_title_prints_the_threshold_used(self):
        report = diff_runs([_span("s", 1.0)], [_span("s", 1.0)], threshold=0.004)
        assert "(threshold 0.4%)" in render_diff(report)
        default = diff_runs([_span("s", 1.0)], [_span("s", 1.0)])
        assert "(threshold 5%)" in render_diff(default)

    def test_delta_and_ratio(self):
        row = DeltaRow(group="stage", name="s", a=2.0, b=3.0, status="x")
        assert row.delta == pytest.approx(1.0)
        assert row.ratio == pytest.approx(0.5)
        missing = DeltaRow(group="stage", name="s", a=None, b=3.0, status="x")
        assert missing.delta is None and missing.ratio is None
        zero = DeltaRow(group="stage", name="s", a=0.0, b=3.0, status="x")
        assert zero.ratio is None

    def test_manifest_comparability(self):
        def records(meta):
            session = TelemetrySession(meta=meta)
            with session.tracer.span("op"):
                session.tracer.advance_sim(1.0)
            return session.records()

        a = records({"command": "t", "threads": 4})
        same = records({"command": "t", "threads": 4})
        other = records({"command": "t", "threads": 8})
        assert diff_runs(a, same).comparable
        assert not diff_runs(a, other).comparable
        # Missing manifests are not *in*comparable, just unknown.
        assert diff_runs([], []).comparable

    def test_cost_traces_diffed(self):
        from repro.memsim.trace import CostTrace

        def records(seconds):
            session = TelemetrySession(meta={"command": "t"})
            trace = CostTrace()
            trace.charge("read_index", seconds, 0)
            session.add_cost_trace("x", trace)
            return session.records()

        report = diff_runs(records(1.0), records(3.0))
        (row,) = [r for r in report.rows if r.group == "cost"]
        assert row.name == "read_index"
        assert row.status == STATUS_REGRESSED


class TestRenderDiff:
    def test_render_names_regressions(self):
        a, b = [_span("solve", 1.0)], [_span("solve", 2.0)]
        text = render_diff(diff_runs(a, b))
        assert "REGRESSED (1): stage:solve" in text

    def test_render_clean(self):
        text = render_diff(diff_runs([_span("s", 1.0)], [_span("s", 1.0)]))
        assert "no regressions above threshold" in text

    def test_render_warns_on_config_mismatch(self):
        def records(threads):
            session = TelemetrySession(meta={"command": "t", "threads": threads})
            return session.records()

        text = render_diff(diff_runs(records(4), records(8)))
        assert "not directly" in text

    def test_render_empty_inputs(self):
        assert "no regressions" in render_diff(diff_runs([], []))
