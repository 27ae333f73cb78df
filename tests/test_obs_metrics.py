"""Unit tests for the metrics registry (repro.obs.metrics)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _label_key,
)


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2.5)
        assert registry.value("hits") == pytest.approx(3.5)

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="increments"):
            MetricsRegistry().counter("x").inc(-1.0)

    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("plans", kind="degree").inc(3)
        registry.counter("plans", kind="frequency").inc(1)
        assert registry.value("plans", kind="degree") == 3
        assert registry.value("plans", kind="frequency") == 1
        assert registry.total("plans") == 4

    def test_untouched_metric_reads_zero(self):
        assert MetricsRegistry().value("never") == 0.0


class TestGauge:
    def test_set_overwrites(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("occupancy")
        gauge.set(10.0)
        gauge.set(4.0)
        assert registry.value("occupancy") == 4.0

    def test_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.inc(5.0)
        gauge.dec(2.0)
        assert gauge.value == 3.0

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")


class TestHistogram:
    def test_bucketing(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 100.0):
            hist.observe(v)
        assert hist.bucket_counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(106.2)
        assert hist.min == 0.5
        assert hist.max == 100.0
        assert hist.mean == pytest.approx(26.55)

    def test_quantile_upper_bounds(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0):
            hist.observe(v)
        # Interior quantiles report the containing bucket's upper bound.
        assert hist.quantile(0.5) == 2.0
        assert hist.quantile(0.9) == 3.0  # bound 4.0 clamped to observed max

    def test_quantile_extremes_are_exact(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0):
            hist.observe(v)
        assert hist.quantile(0.0) == 0.5
        assert hist.quantile(1.0) == 3.0

    def test_overflow_quantile_is_max(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        hist.observe(50.0)
        hist.observe(60.0)
        assert hist.quantile(0.5) == 60.0
        assert hist.quantile(1.0) == 60.0

    def test_single_observation_every_quantile(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        hist.observe(3.0)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 3.0

    def test_empty_quantile_is_nan(self):
        import math

        hist = MetricsRegistry().histogram("h")
        for q in (0.0, 0.5, 1.0):
            assert math.isnan(hist.quantile(q))

    def test_quantile_clamped_into_observed_range(self):
        # All mass in one coarse bucket: the bound (10.0) exceeds every
        # observation, so the quantile must clamp to the observed max.
        hist = MetricsRegistry().histogram("h", buckets=(10.0,))
        for v in (2.0, 3.0, 4.0):
            hist.observe(v)
        assert hist.quantile(0.5) == 4.0

    def test_fraction_over(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0):
            hist.observe(v)
        assert hist.fraction_over(0.0) == 1.0  # threshold inside bucket 0
        assert hist.fraction_over(1.0) == pytest.approx(0.75)
        assert hist.fraction_over(2.0) == pytest.approx(0.25)
        assert hist.fraction_over(3.0) == 0.0  # >= observed max
        assert hist.fraction_over(100.0) == 0.0

    def test_fraction_over_empty(self):
        assert MetricsRegistry().histogram("h").fraction_over(1.0) == 0.0

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError, match="q must be"):
            MetricsRegistry().histogram("h").quantile(1.5)

    def test_empty_bucket_list_rejected(self):
        with pytest.raises(ValueError, match="bucket"):
            MetricsRegistry().histogram("h", buckets=())

    def test_record_schema(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        record = hist.to_record()
        assert record["type"] == "metric"
        assert record["kind"] == "histogram"
        assert record["count"] == 1
        assert record["bounds"] == [1.0]
        assert record["bucket_counts"] == [1, 0]

    def test_value_on_histogram_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        with pytest.raises(TypeError, match="histogram"):
            registry.value("h")


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a", k="1") is not registry.counter("a")

    @pytest.mark.parametrize(
        "labels",
        [{}, {"kind": "degree"}, {"socket": 1}, {"b": 2, "a": 1},
         {"z": None, "m": 0.5, "a": "x"}],
    )
    def test_label_key_is_the_sorted_string_pairs(self, labels):
        # Zero and one label take a shortcut; the key must be the tuple
        # the general formulation gives, or series would split in two.
        key = _label_key(labels)
        assert key == tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        assert type(key) is tuple and all(type(pair) is tuple for pair in key)

    def test_iteration_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        registry.gauge("a", socket=1)
        names = [(m.name, tuple(sorted(m.labels.items()))) for m in registry]
        assert names == sorted(names)

    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(2)
        registry.gauge("used", tier="dram").set(7)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["hits"] == 2
        assert snap["used{tier=dram}"] == 7
        assert snap["lat"]["count"] == 1

    def test_to_records_roundtrippable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("hits", kind="degree").inc(1)
        registry.histogram("h", buckets=(1.0,)).observe(2.0)
        payload = json.dumps(registry.to_records())
        records = json.loads(payload)
        assert {r["kind"] for r in records} == {"counter", "histogram"}

    def test_len(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        assert len(registry) == 2


_finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
_labels = st.dictionaries(
    st.sampled_from(["klass", "status", "shard"]),
    st.sampled_from(["a", "b", "7"]) | st.integers(0, 3),
    max_size=2,
)
_series = st.tuples(
    st.sampled_from(["counter", "gauge", "histogram"]),
    st.sampled_from(["serve.latency", "spmm.calls", "wofp.hit_nnz"]),
    _labels,
    st.lists(_finite, max_size=6),
)


def _registry(series) -> MetricsRegistry:
    registry = MetricsRegistry()
    for kind, name, labels, values in series:
        try:
            if kind == "counter":
                metric = registry.counter(name, **labels)
                for value in values:
                    metric.inc(abs(value))
            elif kind == "gauge":
                metric = registry.gauge(name, **labels)
                for value in values:
                    metric.set(value)
            else:
                metric = registry.histogram(name, (1e-3, 1.0, 1e3), **labels)
                for value in values:
                    metric.observe(value)
        except TypeError:
            pass  # the series exists under another kind
    return registry


class TestRecordRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_series, max_size=12))
    def test_from_records_inverts_to_records(self, series):
        records = _registry(series).to_records()
        rebuilt = MetricsRegistry.from_records(records)
        assert rebuilt.to_records() == records
        # ... and through the file's JSON too.
        decoded = json.loads(json.dumps(records))
        assert MetricsRegistry.from_records(decoded).to_records() == records

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_series, max_size=12))
    def test_total_is_the_registry_value_summed(self, series):
        registry = _registry(series)
        rebuilt = MetricsRegistry.from_records(registry.to_records())
        for name in ("serve.latency", "spmm.calls", "wofp.hit_nnz"):
            expected = sum(
                (
                    m.value
                    for m in registry
                    if m.name == name and not isinstance(m, Histogram)
                ),
                0.0,
            )
            assert rebuilt.total(name) == expected

    def test_merge_adds_observations(self):
        a = Histogram("h", {}, buckets=(1.0, 10.0))
        b = Histogram("h", {"k": "v"}, buckets=(10.0, 1.0))
        for value in (0.5, 20.0):
            a.observe(value)
        b.observe(5.0)
        a.merge(b)
        assert a.bucket_counts == [1, 1, 1]
        assert (a.count, a.sum, a.min, a.max) == (3, 25.5, 0.5, 20.0)
        with pytest.raises(ValueError, match="mismatched"):
            a.merge(Histogram("h", {}, buckets=(1.0,)))
