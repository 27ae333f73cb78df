"""Metrics registry: counters, gauges and fixed-bucket histograms.

The pipeline's non-timing telemetry — WoFP hit/miss counts, pinned and
allocated bytes, per-partition entropy, streaming exposure — flows into a
:class:`MetricsRegistry` and from there into the run's telemetry file as
``metric`` records.  The model follows the Prometheus conventions
(monotonic counters, last-value gauges, cumulative-bucket histograms).

Metrics are identified by a name plus an optional label mapping;
``registry.counter("wofp.hit_nnz", kind="degree")`` and
``registry.counter("wofp.hit_nnz", kind="frequency")`` are distinct
series of the same family.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Callable, Iterable

#: One replayable metric update: a bound ``Counter.inc`` / ``Gauge.set`` /
#: ``Histogram.observe`` and the value to call it with.
MetricUpdate = tuple[Callable[[float], None], float]


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    # The registry is consulted dozens of times per multiply, almost
    # always with zero or one label; neither needs a sort.
    if not labels:
        return ()
    if len(labels) == 1:
        ((key, value),) = labels.items()
        return ((str(key), str(value)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _full_name(name: str, labels: dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in _label_key(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count (events, bytes, nnz)."""

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add a non-negative amount."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount

    def to_record(self) -> dict[str, Any]:
        """Serialize to a plain dict (the JSONL metric record payload)."""
        return {
            "type": "metric",
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge(Counter):
    """Last-observed value (occupancy, entropy, partition counts)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        """Overwrite the gauge with the latest observation."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Gauges may move in either direction."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Decrease the gauge."""
        self.value -= amount


#: Default histogram buckets: log-spaced, wide enough for both simulated
#: seconds (1 us .. hours) and dimensionless ratios.
DEFAULT_BUCKETS = tuple(10.0**e for e in range(-6, 7))


class Histogram:
    """Fixed-bucket histogram with cumulative bucket counts."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: dict[str, Any],
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError(f"bucket bounds must be finite, got {bounds}")
        self.name = name
        self.labels = dict(labels)
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +inf overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # The first bound at or above the value; NaN overflows to +inf.
        index = (
            bisect_left(self.bounds, value)
            if value == value
            else len(self.bounds)
        )
        self.bucket_counts[index] += 1

    @property
    def mean(self) -> float:
        """Mean of all observations (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket upper bounds.

        Edge cases are explicit rather than whatever the bucket math
        produces:

        - an empty histogram returns ``nan`` (there is no quantile of
          nothing, and 0.0 would be indistinguishable from real data);
        - ``q=0`` returns the observed minimum and ``q=1`` the observed
          maximum, exactly;
        - a single observation returns that value for every ``q``;
        - interior quantiles return the upper bound of the bucket
          containing the q-quantile observation, clamped into
          ``[min, max]`` so a coarse bucket cannot report a value no
          observation ever reached (+inf overflow buckets report the
          observed max).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        if q == 0.0 or self.count == 1:
            return self.min if q < 1.0 else self.max
        if q == 1.0:
            return self.max
        rank = q * self.count
        seen = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= rank and bucket_count > 0:
                if i < len(self.bounds):
                    return min(max(self.bounds[i], self.min), self.max)
                return self.max
        return self.max

    def fraction_over(self, threshold: float) -> float:
        """Fraction of observations strictly above ``threshold`` (approx).

        Computed from the cumulative buckets: every observation in a
        bucket whose upper bound is <= ``threshold`` counts as within
        the threshold; the rest count as over.  Conservative (an
        over-estimate) when the threshold falls inside a bucket.
        Returns 0.0 for an empty histogram (no observation exceeded
        anything).
        """
        if self.count == 0:
            return 0.0
        if threshold >= self.max:
            return 0.0
        within = 0
        for i, bound in enumerate(self.bounds):
            if bound <= threshold:
                within += self.bucket_counts[i]
            else:
                break
        return (self.count - within) / self.count

    def to_record(self) -> dict[str, Any]:
        """Serialize to a plain dict (the JSONL metric record payload)."""
        return {
            "type": "metric",
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
        }


class MetricsRegistry:
    """Get-or-create registry for all metric families."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple], Counter | Histogram] = {}

    def _get(self, cls: type, name: str, labels: dict[str, Any], **kwargs: Any):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels, **kwargs)
            self._metrics[key] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind},"
                f" requested {cls.__name__.lower()}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create a counter."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get or create a gauge."""
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        """Get or create a histogram (buckets fixed at first creation)."""
        return self._get(Histogram, name, labels, buckets=buckets)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(
            sorted(self._metrics.values(), key=lambda m: (m.name, _label_key(m.labels)))
        )

    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter/gauge (0 if never touched)."""
        metric = self._metrics.get((name, _label_key(labels)))
        if metric is None:
            return 0.0
        if isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is a histogram; read its record instead")
        return metric.value

    def family_total(self, name: str) -> float:
        """Sum of a counter/gauge family's values across all label sets."""
        return sum(
            m.value
            for m in self._metrics.values()
            if m.name == name and not isinstance(m, Histogram)
        )

    def to_records(self) -> list[dict[str, Any]]:
        """Serialize every metric, sorted by (name, labels)."""
        return [metric.to_record() for metric in self]

    def snapshot(self) -> dict[str, Any]:
        """Flat ``{full_name: value-or-summary}`` view, for assertions."""
        out: dict[str, Any] = {}
        for metric in self:
            full = _full_name(metric.name, metric.labels)
            if isinstance(metric, Histogram):
                out[full] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "mean": metric.mean,
                }
            else:
                out[full] = metric.value
        return out
