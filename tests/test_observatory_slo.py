"""Declarative SLO evaluation with error-budget burn rates."""

import json
import math
from pathlib import Path

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.observatory.slo import (
    SLOObjective,
    SLOSpec,
    evaluate_slo,
    render_slo,
)


def _serve_records(latencies, submitted, served, deadline=0, trips=0):
    registry = MetricsRegistry()
    hist = registry.histogram(
        "serve.latency", buckets=(1e-4, 1e-3, 1e-2), klass="interactive"
    )
    for value in latencies:
        hist.observe(value)
    registry.counter("serve.submitted").inc(submitted)
    registry.counter(
        "serve.responses", status="served", klass="interactive"
    ).inc(served)
    if deadline:
        registry.counter(
            "serve.responses", status="deadline_exceeded", klass="interactive"
        ).inc(deadline)
    if trips:
        registry.counter("serve.breaker.trips").inc(trips)
    return registry.to_records()


def _spec(**objective):
    """A one-objective spec payload named ``x``."""
    return {"objectives": [{"name": "x", **objective}]}


class TestObjectiveValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SLOObjective(name="x", kind="nope", target=1.0)

    def test_latency_needs_quantile(self):
        with pytest.raises(ValueError, match="q in"):
            SLOObjective(name="x", kind="latency_quantile", target=0.1)
        with pytest.raises(ValueError, match="q in"):
            SLOObjective(name="x", kind="latency_quantile", target=0.1, q=1.0)

    def test_fraction_targets_bounded(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            SLOObjective(name="x", kind="served_fraction", target=1.5)

    def test_status_fraction_needs_status(self):
        with pytest.raises(ValueError, match="status"):
            SLOObjective(name="x", kind="status_fraction", target=0.1)

    def test_negative_trips_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            SLOObjective(name="x", kind="breaker_trips", target=-1)


class TestSpecIO:
    def test_from_dict_and_roundtrip(self, tmp_path):
        spec = SLOSpec.from_dict(
            {
                "name": "s",
                "objectives": [
                    {"name": "p99", "kind": "latency_quantile",
                     "q": 0.99, "target": 0.002, "klass": "interactive"},
                    {"name": "served", "kind": "served_fraction",
                     "target": 0.9},
                ],
            }
        )
        path = spec.save(tmp_path / "slo.json")
        loaded = SLOSpec.load(path)
        assert loaded == spec

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="objectives"):
            SLOSpec.from_dict({"objectives": []})

    @pytest.mark.parametrize(
        "payload, field",
        [
            (_spec(kind="latency_quantile", q=0.99, target=math.nan), "target"),
            (_spec(kind="latency_quantile", q=0.99, target=math.inf), "target"),
            (_spec(kind="stage_seconds", stage="spmm", target=math.inf),
             "target"),
            (_spec(kind="stage_seconds", stage="spmm", target=math.nan),
             "target"),
            (_spec(kind="breaker_trips", target=math.nan), "target"),
            (_spec(kind="breaker_trips", target=math.inf), "target"),
            (_spec(kind="staleness_bound", target=math.nan), "target"),
            (_spec(kind="staleness_bound", target=math.inf), "target"),
            (_spec(kind="breaker_trips", target=True), "target"),
            (_spec(kind="breaker_trips", target="3"), "target"),
            (_spec(kind="breaker_trips"), "target"),
            ({"objectives": [{"kind": "breaker_trips", "target": 1}]}, "name"),
            ({"objectives": [{"name": "x", "target": 1}]}, "kind"),
            (_spec(kind="latency_quantile", q="0.9", target=0.1), "q"),
            (_spec(kind="status_fraction", status=3, target=0.1), "status"),
            ({"objectives": {"name": "x"}}, "objectives"),
            ({"objectives": ["x"]}, "objective"),
            ([{"name": "x", "kind": "breaker_trips", "target": 1}], "spec"),
        ],
    )
    def test_malformed_spec_rejected_naming_file_and_field(
        self, tmp_path, payload, field
    ):
        with pytest.raises(ValueError, match=field):
            SLOSpec.from_dict(payload)
        path = tmp_path / "bad.slo.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=field) as err:
            SLOSpec.load(path)
        assert str(path) in str(err.value)

    def test_bad_json_names_the_file(self, tmp_path):
        path = tmp_path / "bad.slo.json"
        path.write_text('{"objectives": [', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.slo.json"):
            SLOSpec.load(path)

    @pytest.mark.parametrize("name", ["serve_tail.slo.json", "embed.slo.json"])
    def test_committed_specs_load_unchanged(self, name):
        path = Path(__file__).resolve().parents[1] / "benchmarks" / name
        payload = json.loads(path.read_text(encoding="utf-8"))
        spec = SLOSpec.load(path)
        assert spec.name == payload["name"]
        assert [o.to_dict() for o in spec.objectives] == payload["objectives"]


class TestEvaluation:
    def test_latency_quantile_pass_and_fail(self):
        fast = _serve_records([5e-5] * 100, 100, 100)
        slow = _serve_records([5e-5] * 50 + [5e-3] * 50, 100, 100)
        spec = SLOSpec.from_dict(
            {"objectives": [{"name": "p99", "kind": "latency_quantile",
                             "q": 0.99, "target": 1e-3,
                             "klass": "interactive"}]}
        )
        ok = evaluate_slo(fast, spec)
        assert ok.ok and ok.results[0].burn_rate == 0.0
        bad = evaluate_slo(slow, spec)
        assert not bad.ok
        # Half the observations blow a 1% budget: 0.5 / 0.01 = 50x burn.
        assert bad.results[0].burn_rate == pytest.approx(50.0)
        assert [r.objective.name for r in bad.violations] == ["p99"]

    def test_served_fraction(self):
        records = _serve_records([1e-5] * 10, 100, 90, deadline=10)
        spec = SLOSpec.from_dict(
            {"objectives": [
                {"name": "served", "kind": "served_fraction", "target": 0.8},
            ]}
        )
        report = evaluate_slo(records, spec)
        result = report.results[0]
        assert result.passed and result.value == pytest.approx(0.9)
        # 10% unserved against a 20% budget: half the budget burned.
        assert result.burn_rate == pytest.approx(0.5)

    def test_status_fraction_violated(self):
        records = _serve_records([1e-5] * 10, 100, 60, deadline=40)
        spec = SLOSpec.from_dict(
            {"objectives": [
                {"name": "misses", "kind": "status_fraction",
                 "status": "deadline_exceeded", "target": 0.2},
            ]}
        )
        result = evaluate_slo(records, spec).results[0]
        assert not result.passed
        assert result.value == pytest.approx(0.4)
        assert result.burn_rate == pytest.approx(2.0)

    def test_breaker_trips(self):
        records = _serve_records([1e-5], 1, 1, trips=2)
        spec = SLOSpec.from_dict(
            {"objectives": [
                {"name": "b", "kind": "breaker_trips", "target": 3},
            ]}
        )
        result = evaluate_slo(records, spec).results[0]
        assert result.passed and result.burn_rate == pytest.approx(2 / 3)

    def test_no_data_passes_vacuously(self):
        spec = SLOSpec.from_dict(
            {"objectives": [
                {"name": "p99", "kind": "latency_quantile", "q": 0.99,
                 "target": 1e-3},
                {"name": "served", "kind": "served_fraction", "target": 0.9},
                {"name": "shed", "kind": "status_fraction",
                 "status": "shed", "target": 0.0},
            ]}
        )
        report = evaluate_slo([], spec)
        assert report.ok
        for result in report.results:
            assert math.isnan(result.value)
            assert result.burn_rate == 0.0

    def test_pass_flag_agrees_with_burn_rate_sign(self):
        """burn > 1 iff the bounded quantity breaches its budget, for the
        fraction/count kinds (latency is bucket-approximate)."""
        for served in (50, 85, 99):
            records = _serve_records(
                [1e-5] * 10, 100, served, deadline=100 - served
            )
            spec = SLOSpec.from_dict(
                {"objectives": [
                    {"name": "served", "kind": "served_fraction",
                     "target": 0.9},
                    {"name": "m", "kind": "status_fraction",
                     "status": "deadline_exceeded", "target": 0.10},
                ]}
            )
            for result in evaluate_slo(records, spec).results:
                assert result.passed == (result.burn_rate <= 1.0 + 1e-12)

    def test_render(self):
        records = _serve_records([5e-3] * 10, 10, 10)
        spec = SLOSpec.from_dict(
            {"name": "demo", "objectives": [
                {"name": "p99", "kind": "latency_quantile", "q": 0.9,
                 "target": 1e-3, "klass": "interactive"},
            ]}
        )
        text = render_slo(evaluate_slo(records, spec))
        assert "FAIL" in text and "VIOLATED" in text and "p99" in text

    def test_mismatched_buckets_rejected(self):
        a = _serve_records([1e-5], 1, 1)
        registry = MetricsRegistry()
        registry.histogram(
            "serve.latency", buckets=(5.0,), klass="batch"
        ).observe(1.0)
        records = a + registry.to_records()
        spec = SLOSpec.from_dict(
            {"objectives": [{"name": "p", "kind": "latency_quantile",
                             "q": 0.5, "target": 1.0}]}
        )
        with pytest.raises(ValueError, match="mismatched"):
            evaluate_slo(records, spec)
