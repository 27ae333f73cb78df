"""Differential oracle for the one metric-record reader.

Before :meth:`MetricsRegistry.from_records` existed, four views each
parsed ``metric`` records themselves: the SLO evaluator
(``_counter_total``, ``_merged_latency_histogram``), ``repro top``
(``_label_values``) and ``repro diff`` (three ``extract_*`` loops).
Those readers are kept here verbatim as the reference; the registry's
selectors must agree with them on seeded record lists and on
adversarial ones.

The one reader skips records without a name or kind and reads a null
value as zero, where the old readers disagreed among themselves; so on
adversarial lists the reference runs on :func:`_kept` — the records the
one rule keeps, nulls read as zero.  A series recorded twice sums
(counters, gauges) or merges (histograms), as every old reader but
``diff``'s did; ``diff`` kept the last record, which
:class:`TestDuplicateSeries` pins.
"""

import random

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.observatory.diff import (
    extract_attribution_values,
    extract_metric_values,
    extract_placement_values,
)


# ---------------------------------------------------------------------------
# The reference: the readers as they stood before the registry read records
# ---------------------------------------------------------------------------


def _metric_records(records):
    return [r for r in records if r.get("type") == "metric"]


def _counter_total(records, name, labels=None):
    total = 0.0
    for record in _metric_records(records):
        if record.get("name") != name:
            continue
        if record.get("kind") not in ("counter", "gauge"):
            continue
        record_labels = record.get("labels") or {}
        if labels and any(
            str(record_labels.get(k)) != str(v) for k, v in labels.items()
        ):
            continue
        total += float(record.get("value", 0.0) or 0.0)
    return total


def _merged_latency_histogram(records, klass):
    merged = None
    for record in _metric_records(records):
        if record.get("name") != "serve.latency":
            continue
        if record.get("kind") != "histogram":
            continue
        labels = record.get("labels") or {}
        if klass is not None and labels.get("klass") != klass:
            continue
        bounds = tuple(record.get("bounds") or ())
        if not bounds:
            continue
        if merged is None:
            merged = Histogram("serve.latency", {}, buckets=bounds)
        elif merged.bounds != tuple(sorted(float(b) for b in bounds)):
            raise ValueError(
                "serve.latency histograms use mismatched buckets;"
                " cannot merge for SLO evaluation"
            )
        counts = record.get("bucket_counts") or []
        for i, c in enumerate(counts[: len(merged.bucket_counts)]):
            merged.bucket_counts[i] += int(c)
        merged.count += int(record.get("count", 0) or 0)
        merged.sum += float(record.get("sum", 0.0) or 0.0)
        if record.get("min") is not None:
            merged.min = min(merged.min, float(record["min"]))
        if record.get("max") is not None:
            merged.max = max(merged.max, float(record["max"]))
    return merged


def _label_values(metric_records, name, label):
    out = {}
    for record in metric_records:
        if record.get("name") != name:
            continue
        value = record.get("value")
        if value is None:
            continue
        key = (record.get("labels") or {}).get(label, "")
        out[key] = out.get(key, 0.0) + float(value)
    return out


def _old_placement(records):
    out = {}
    for record in records:
        if record.get("type") != "metric":
            continue
        name = record.get("name")
        if not isinstance(name, str) or not name.startswith(
            "shard.placement."
        ):
            continue
        labels = record.get("labels") or {}
        suffix = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        key = name[len("shard.placement."):]
        if suffix:
            key = f"{key}[{suffix}]"
        out[key] = float(record.get("value", 0.0) or 0.0)
    return out


def _old_attribution(records):
    seconds = {}
    for record in records:
        if record.get("type") != "metric":
            continue
        if record.get("name") != "serve.blame_seconds":
            continue
        labels = record.get("labels") or {}
        klass = str(labels.get("klass", "?"))
        category = str(labels.get("category", "?"))
        value = float(record.get("value", 0.0) or 0.0)
        seconds.setdefault(klass, {})[category] = (
            seconds.get(klass, {}).get(category, 0.0) + value
        )
    out = {}
    for klass, blame in seconds.items():
        total = sum(blame.values())
        if total <= 0.0:
            continue
        for category, value in blame.items():
            out[f"{klass}/{category}"] = value / total
    return out


def _old_metric_values(records):
    out = {}
    for record in records:
        if record.get("type") != "metric":
            continue
        if record.get("kind") not in ("counter", "gauge"):
            continue
        name = record.get("name")
        if not isinstance(name, str):
            continue
        labels = record.get("labels") or {}
        if labels:
            inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            name = f"{name}{{{inner}}}"
        out[name] = float(record.get("value", 0.0) or 0.0)
    return out


# ---------------------------------------------------------------------------
# Record lists
# ---------------------------------------------------------------------------

BOUNDS = (1e-4, 1e-3, 1e-2)
STATUSES = ("served", "shed", "deadline_exceeded", "failed")
CLASSES = ("interactive", "batch")


def _seeded_records(seed):
    """A serve-shaped export from a random registry, spans interleaved."""
    rng = random.Random(seed)
    registry = MetricsRegistry()
    registry.counter("serve.submitted").inc(rng.randint(0, 500))
    for klass in CLASSES:
        for status in STATUSES:
            if rng.random() < 0.7:
                registry.counter(
                    "serve.responses", status=status, klass=klass
                ).inc(rng.randint(0, 200))
        if rng.random() < 0.8:
            hist = registry.histogram("serve.latency", BOUNDS, klass=klass)
            for _ in range(rng.randint(0, 40)):
                hist.observe(rng.lognormvariate(-7.0, 1.5))
        for category in ("queue", "kernel", "hedge"):
            if rng.random() < 0.7:
                registry.counter(
                    "serve.blame_seconds", klass=klass, category=category
                ).inc(rng.random() * 1e-3)
    for tier in ("full", "stale", "propagation_only"):
        if rng.random() < 0.6:
            registry.counter("serve.served", fidelity=tier).inc(
                rng.randint(0, 50)
            )
    for shard in range(rng.randint(0, 3)):
        registry.gauge("shard.placement.rows", shard=shard).set(
            rng.randint(1, 999)
        )
    for model in ("real", "distdgl"):
        registry.gauge("shard.placement.balance", model=model).set(
            1.0 + rng.random()
        )
    registry.gauge("shard.staleness_max").set(rng.randint(0, 4))
    records = registry.to_records()
    for i in range(3):
        records.insert(
            rng.randint(0, len(records)),
            {"type": "span", "name": f"s{i}", "sim_seconds": rng.random()},
        )
    return records


def _metric(kind, name, labels=None, **fields):
    record = {"type": "metric", "kind": kind, "name": name}
    if labels is not None:
        record["labels"] = labels
    record.update(fields)
    return record


#: Nameless, kindless, null-valued and two-kind records, no series twice.
ADVERSARIAL = [
    {"type": "metric", "kind": "counter", "value": 7.0},  # nameless
    _metric("counter", "", {"status": "shed"}, value=2.0),  # empty name
    {"type": "metric", "name": "serve.submitted", "value": 9.0},  # kindless
    {"type": "metric", "name": "serve.responses",
     "labels": {"status": "shed"}, "value": 4.0},  # kindless, labelled
    _metric("mystery", "serve.submitted", value=3.0),  # unknown kind
    {"type": "metric"},
    _metric("counter", "serve.submitted", value=10.0),
    _metric("gauge", "serve.submitted", {"shard": "1"}, value=5.0),
    _metric("counter", "serve.responses",
            {"status": "served", "klass": "batch"}, value=None),
    _metric("counter", "serve.responses", {"status": "shed"}, value=3.0),
    _metric("counter", "serve.responses", None, value=1.0),  # no labels
    _metric("histogram", "serve.responses", {"status": "failed"},
            count=2, sum=0.5, min=0.1, max=0.4, bounds=[1.0],
            bucket_counts=[2, 0]),  # a scalar family's name, as histogram
    _metric("counter", "serve.latency", None, value=6.0),
    _metric("histogram", "serve.latency", {"klass": "interactive"},
            count=3, sum=0.012, min=5e-5, max=0.01, bounds=list(BOUNDS),
            bucket_counts=[1, 1, 1, 0]),
    _metric("histogram", "serve.latency", {"klass": "batch"},
            count=None, sum=None, min=None, max=None, bounds=list(BOUNDS),
            bucket_counts=None),  # null histogram fields
    _metric("histogram", "serve.latency", {"klass": "bulk"},
            count=1, sum=1.0, min=1.0, max=1.0, bounds=[],
            bucket_counts=[1]),  # no bounds: skipped
    _metric("counter", "serve.blame_seconds",
            {"klass": "batch", "category": "queue"}, value=None),
    _metric("counter", "serve.blame_seconds",
            {"klass": "batch", "category": "kernel"}, value=2.0),
    _metric("counter", "serve.blame_seconds", {"category": "hedge"},
            value=1.0),
    _metric("gauge", "shard.placement.edge_cut", {"model": "real"},
            value=None),
    _metric("gauge", "shard.placement.nnz", None, value=12.0),
    {"type": "span", "name": "serve.submitted", "sim_seconds": 1.0},
]


def _kept(records):
    """The records the one reader keeps, a null value read as zero."""
    out = []
    for record in records:
        name, kind = record.get("name"), record.get("kind")
        if record.get("type") != "metric" or not isinstance(name, str):
            continue
        if not name or kind not in ("counter", "gauge", "histogram"):
            continue
        if kind != "histogram" and record.get("value") is None:
            record = {**record, "value": 0.0}
        out.append(record)
    return out


def _hist_fields(hist):
    if hist is None:
        return None
    return (
        hist.bounds, hist.bucket_counts, hist.count, hist.sum, hist.min,
        hist.max,
    )


TOTAL_QUERIES = [
    ("serve.submitted", {}),
    ("serve.responses", {}),
    ("serve.responses", {"status": "served"}),
    ("serve.responses", {"status": "shed"}),
    ("serve.responses", {"status": "failed", "klass": "batch"}),
    ("serve.latency", {}),
    ("shard.staleness_max", {}),
    ("absent", {}),
]

LABEL_QUERIES = [
    ("serve.responses", "status"),
    ("serve.responses", "klass"),
    ("serve.served", "fidelity"),
    ("serve.blame_seconds", "category"),
]


def _check_against_reference(records, reference):
    registry = MetricsRegistry.from_records(records)
    for name, labels in TOTAL_QUERIES:
        assert registry.total(name, **labels) == _counter_total(
            reference, name, labels
        ), (name, labels)
    for klass in (None, *CLASSES, "bulk"):
        labels = {} if klass is None else {"klass": klass}
        assert _hist_fields(
            registry.merged("serve.latency", **labels)
        ) == _hist_fields(_merged_latency_histogram(reference, klass))
    metric_records = _metric_records(reference)
    for name, label in LABEL_QUERIES:
        assert registry.totals_by(name, label) == _label_values(
            metric_records, name, label
        ), (name, label)
    assert extract_metric_values(records) == _old_metric_values(reference)
    assert extract_placement_values(records) == _old_placement(reference)
    assert extract_attribution_values(records) == _old_attribution(reference)


class TestSeeded:
    @pytest.mark.parametrize("seed", range(12))
    def test_selectors_match_the_old_readers(self, seed):
        records = _seeded_records(seed)
        _check_against_reference(records, records)


class TestAdversarial:
    def test_selectors_match_the_old_readers_on_what_the_rule_keeps(self):
        _check_against_reference(ADVERSARIAL, _kept(ADVERSARIAL))

    def test_totals_and_histograms_match_on_the_raw_list_too(self):
        # These two readers already skipped what the one rule skips.
        registry = MetricsRegistry.from_records(ADVERSARIAL)
        for name, labels in TOTAL_QUERIES:
            assert registry.total(name, **labels) == _counter_total(
                ADVERSARIAL, name, labels
            )
        for klass in (None, *CLASSES, "bulk"):
            labels = {} if klass is None else {"klass": klass}
            assert _hist_fields(
                registry.merged("serve.latency", **labels)
            ) == _hist_fields(_merged_latency_histogram(ADVERSARIAL, klass))

    def test_empty_total_is_a_float(self):
        total = MetricsRegistry.from_records([]).total("serve.breaker.trips")
        assert total == 0.0 and isinstance(total, float)

    def test_mismatched_bounds_still_raise(self):
        records = [
            _metric("histogram", "serve.latency", {"klass": "a"},
                    count=1, sum=1.0, min=1.0, max=1.0, bounds=[1.0, 2.0],
                    bucket_counts=[1, 0, 0]),
            _metric("histogram", "serve.latency", {"klass": "b"},
                    count=1, sum=1.0, min=1.0, max=1.0, bounds=[1.0],
                    bucket_counts=[1, 0]),
        ]
        with pytest.raises(ValueError, match="mismatched"):
            _merged_latency_histogram(records, None)
        registry = MetricsRegistry.from_records(records)
        with pytest.raises(ValueError, match="mismatched"):
            registry.merged("serve.latency")
        # One class alone merges fine.
        assert registry.merged("serve.latency", klass="a").count == 1

    def test_histogram_and_scalar_in_one_series_keep_the_first(self):
        # No registry can write this (the write path raises TypeError).
        scalar = _metric("counter", "x", value=2.0)
        hist = _metric("histogram", "x", count=1, sum=1.0, min=1.0,
                       max=1.0, bounds=[1.0], bucket_counts=[1, 0])
        first_scalar = MetricsRegistry.from_records([scalar, hist])
        assert first_scalar.total("x") == 2.0
        assert first_scalar.merged("x") is None
        first_hist = MetricsRegistry.from_records([hist, scalar])
        assert first_hist.total("x") == 0.0
        assert first_hist.merged("x").count == 1


class TestDuplicateSeries:
    """A series recorded twice: counters and gauges sum, histograms merge."""

    RECORDS = [
        _metric("counter", "serve.submitted", value=3.0),
        _metric("gauge", "serve.submitted", value=4.0),
        _metric("counter", "serve.responses", {"status": "shed"}, value=1.0),
        _metric("counter", "serve.responses", {"status": "shed"}, value=2.0),
        _metric("histogram", "serve.latency", {"klass": "a"}, count=1,
                sum=1e-3, min=1e-3, max=1e-3, bounds=list(BOUNDS),
                bucket_counts=[0, 1, 0, 0]),
        _metric("histogram", "serve.latency", {"klass": "a"}, count=2,
                sum=2e-2, min=5e-3, max=1.5e-2, bounds=list(BOUNDS),
                bucket_counts=[0, 0, 1, 1]),
    ]

    def test_totals_and_histograms_agree_with_the_slo_and_top_readers(self):
        registry = MetricsRegistry.from_records(self.RECORDS)
        assert len(registry) == 3
        for name, labels in TOTAL_QUERIES:
            assert registry.total(name, **labels) == _counter_total(
                self.RECORDS, name, labels
            )
        assert _hist_fields(registry.merged("serve.latency")) == (
            _hist_fields(_merged_latency_histogram(self.RECORDS, None))
        )
        assert registry.totals_by("serve.responses", "status") == (
            _label_values(self.RECORDS, "serve.responses", "status")
        )

    def test_diff_sums_where_it_kept_the_last_record(self):
        assert _old_metric_values(self.RECORDS)["serve.submitted"] == 4.0
        values = extract_metric_values(self.RECORDS)
        assert values["serve.submitted"] == 7.0
        assert values["serve.responses{status=shed}"] == 3.0

    def test_mismatched_bounds_in_one_series_raise(self):
        records = [
            _metric("histogram", "h", count=0, bounds=[1.0],
                    bucket_counts=[0, 0]),
            _metric("histogram", "h", count=0, bounds=[2.0],
                    bucket_counts=[0, 0]),
        ]
        with pytest.raises(ValueError, match="mismatched"):
            MetricsRegistry.from_records(records)
