"""Declarative SLOs with error-budget burn rates over serve telemetry.

An SLO spec is a JSON document of objectives evaluated against the
metric records a :mod:`repro.serve` replay exports:

.. code-block:: json

    {"objectives": [
      {"name": "interactive-p99", "kind": "latency_quantile",
       "q": 0.99, "target": 0.002, "klass": "interactive"},
      {"name": "served", "kind": "served_fraction", "target": 0.9},
      {"name": "shed", "kind": "status_fraction", "status": "shed",
       "target": 0.05},
      {"name": "breaker", "kind": "breaker_trips", "target": 3}
    ]}

Every kind bounds one measured value: ``served_fraction`` is a floor
(pass when value >= target), every other kind a ceiling (value <=
target).  The burn rate is the share of the error budget spent, spent /
budget (0 or inf when the budget is 0; above 1.0 the budget is gone).
Each kind's budget is its target and it spends its value, except two:

- ``latency_quantile`` — the q-quantile of the ``serve.latency``
  histograms (all, or one request ``klass``), in seconds; it spends the
  fraction of requests over target from a ``1 - q`` budget;
- ``served_fraction`` — served / submitted; it spends the unserved
  fraction from a ``1 - target`` budget.

The other values: ``status_fraction`` — the fraction of submitted
requests ending in ``status``; ``breaker_trips`` — circuit-breaker
trips; ``stage_seconds`` — the simulated seconds of the spans named
``stage``; ``checkpoint_overhead_fraction`` — ``checkpoint.sim_seconds``
over ``embed.sim_seconds``; ``staleness_bound`` — the worst checkpoint
staleness any lookup saw (the ``shard.staleness_max`` gauge, in table
versions), the bound the background checkpoint refresh exists to hold.

An objective whose inputs the run never recorded passes with a NaN
value and burn 0 (no trips recorded is 0 trips, not nothing).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.metrics import Histogram, MetricsRegistry

#: Recognised objective kinds.
SLO_KINDS = (
    "latency_quantile",
    "served_fraction",
    "status_fraction",
    "breaker_trips",
    "stage_seconds",
    "checkpoint_overhead_fraction",
    "staleness_bound",
)


#: An objective's JSON fields and what each must hold when present
#: (``name``, ``kind`` and ``target`` always are).
_FIELDS = {
    "name": "a string", "kind": "a string", "target": "a number",
    "q": "a number", "klass": "a string", "status": "a string",
    "stage": "a string",
}


@dataclass(frozen=True)
class SLOObjective:
    """One declarative objective.

    Attributes:
        name: label shown in reports.
        kind: one of :data:`SLO_KINDS`.
        target: threshold — seconds for ``latency_quantile``, a
            fraction for the fraction kinds, a count for
            ``breaker_trips``.
        q: quantile in (0, 1) (``latency_quantile`` only).
        klass: restrict to one request class (``latency_quantile``).
        status: response status to bound (``status_fraction`` only).
        stage: span name whose sim seconds are budgeted
            (``stage_seconds`` only).
    """

    name: str
    kind: str
    target: float
    q: float | None = None
    klass: str | None = None
    status: str | None = None
    stage: str | None = None

    def __post_init__(self) -> None:
        kind, target = self.kind, self.target
        if kind not in SLO_KINDS:
            raise ValueError(
                f"unknown SLO kind {kind!r}; expected one of {SLO_KINDS}"
            )
        if not math.isfinite(target):
            raise ValueError(f"target must be finite, got {target}")
        if kind == "latency_quantile" and not 0.0 < (self.q or 0.0) < 1.0:
            raise ValueError(f"latency_quantile needs q in (0, 1), got {self.q}")
        if kind.endswith("_fraction") and not 0.0 <= target <= 1.0:
            raise ValueError(f"{kind} target must be in [0, 1], got {target}")
        if kind == "status_fraction" and not self.status:
            raise ValueError("status_fraction needs a response status")
        if kind == "stage_seconds" and not self.stage:
            raise ValueError("stage_seconds needs a span (stage) name")
        if kind in ("latency_quantile", "stage_seconds") and target <= 0:
            raise ValueError(f"target must be > 0 s, got {target}")
        if target < 0:
            raise ValueError(f"target must be >= 0, got {target}")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
        }
        for key in ("q", "klass", "status", "stage"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SLOObjective":
        """Rebuild an objective from :meth:`to_dict` output.

        Raises:
            ValueError: naming the field that is missing or mistyped
                (``name``/``kind`` must be strings, ``target`` a number,
                ``q`` a number and ``klass``/``status``/``stage``
                strings when present).
        """
        if not isinstance(payload, dict):
            raise ValueError(f"an objective must be an object, got {payload!r}")
        fields: dict[str, Any] = {}
        for key, noun in _FIELDS.items():
            value = payload.get(key)
            if value is None and key not in ("name", "kind", "target"):
                continue
            number = isinstance(value, (int, float)) and not isinstance(
                value, bool
            )
            if not (number if noun == "a number" else isinstance(value, str)):
                raise ValueError(
                    f"objective field {key!r} must be {noun}, got {value!r}"
                )
            fields[key] = float(value) if number else value
        return cls(**fields)


@dataclass(frozen=True)
class SLOSpec:
    """A named bundle of objectives."""

    objectives: tuple[SLOObjective, ...]
    name: str = "slo"

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SLOSpec":
        """Rebuild a spec; ``ValueError`` names the malformed field."""
        if not isinstance(payload, dict):
            raise ValueError(f"a spec must be an object, got {payload!r}")
        entries = payload.get("objectives", [])
        if not isinstance(entries, list):
            raise ValueError(
                f"spec field 'objectives' must be a list, got {entries!r}"
            )
        objectives = []
        for i, entry in enumerate(entries):
            try:
                objectives.append(SLOObjective.from_dict(entry))
            except ValueError as err:
                raise ValueError(f"objectives[{i}]: {err}") from None
        if not objectives:
            raise ValueError("SLO spec declares no objectives")
        return cls(objectives=tuple(objectives), name=payload.get("name", "slo"))

    @classmethod
    def load(cls, path: str | Path) -> "SLOSpec":
        """Read a spec written by :meth:`save` (or by hand).

        Raises:
            ValueError: the file is not valid JSON or not a valid spec;
                the message names the file and the offending field.
        """
        try:
            return cls.from_dict(
                json.loads(Path(path).read_text(encoding="utf-8"))
            )
        except ValueError as err:
            raise ValueError(f"SLO spec {str(path)!r}: {err}") from None

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        payload = {
            "name": self.name,
            "objectives": [o.to_dict() for o in self.objectives],
        }
        path.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        return path


@dataclass(frozen=True)
class ObjectiveResult:
    """Evaluation outcome of one objective."""

    objective: SLOObjective
    value: float
    passed: bool
    burn_rate: float
    detail: str = ""


@dataclass
class SLOReport:
    """All objective results of one evaluation."""

    spec: SLOSpec
    results: list[ObjectiveResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Did every objective pass?"""
        return all(r.passed for r in self.results)

    @property
    def violations(self) -> list[ObjectiveResult]:
        return [r for r in self.results if not r.passed]


def _burn(spent: float, budget: float) -> float:
    """Share of an error budget spent; 0 or inf when the budget is 0."""
    if budget > 0:
        return spent / budget
    return 0.0 if spent == 0 else math.inf


def _measure(
    objective: SLOObjective,
    metrics: MetricsRegistry,
    records: list[dict[str, Any]],
) -> tuple[float | None, float, str]:
    """``(value, burn, detail)`` of one objective; ``None`` = nothing to read."""
    kind, target = objective.kind, objective.target
    if kind == "latency_quantile":
        labels = {} if objective.klass is None else {"klass": objective.klass}
        hist = metrics.merged("serve.latency", **labels)
        if hist is None or hist.count == 0:
            return None, 0.0, "no latency observations"
        bad = hist.fraction_over(target)
        return (
            hist.quantile(objective.q),
            _burn(bad, 1.0 - objective.q),
            f"{hist.count} observations, {bad * 100:.2f}% over target",
        )
    if kind in ("served_fraction", "status_fraction"):
        submitted = metrics.total("serve.submitted")
        if submitted == 0:
            return None, 0.0, "no requests submitted"
        if kind == "served_fraction":
            served = metrics.total("serve.responses", status="served")
            value = served / submitted
            burn = _burn(1.0 - value, 1.0 - target)
            return value, burn, f"{served:.0f}/{submitted:.0f} served"
        count = metrics.total("serve.responses", status=objective.status)
        value = count / submitted
        detail = f"{count:.0f}/{submitted:.0f} {objective.status}"
        return value, _burn(value, target), detail
    if kind == "breaker_trips":
        trips = metrics.total("serve.breaker.trips")
        return trips, _burn(trips, target), f"{trips:.0f} trips"
    if kind == "stage_seconds":
        spans = [
            r for r in records
            if r.get("type") == "span" and r.get("name") == objective.stage
        ]
        if not spans:
            return None, 0.0, f"no {objective.stage!r} spans"
        seconds = sum(float(r.get("sim_seconds", 0.0) or 0.0) for r in spans)
        return seconds, _burn(seconds, target), f"{len(spans)} span(s)"
    if kind == "checkpoint_overhead_fraction":
        checkpoint = metrics.total("checkpoint.sim_seconds")
        embed = metrics.total("embed.sim_seconds")
        if embed == 0:
            return None, 0.0, "no embed.sim_seconds recorded"
        value = checkpoint / embed
        detail = f"{checkpoint:.4g}s checkpoint / {embed:.4g}s embed"
        return value, _burn(value, target), detail
    # staleness_bound: the worst lag any series of the gauge recorded.
    observed = max(
        (
            m.value
            for m in metrics.series("shard.staleness_max")
            if not isinstance(m, Histogram)
        ),
        default=None,
    )
    if observed is None:
        return None, 0.0, "no shard.staleness_max recorded"
    detail = f"max lag {observed:.0f} version(s)"
    return observed, _burn(observed, target), detail


def evaluate_slo(
    records: list[dict[str, Any]], spec: SLOSpec
) -> SLOReport:
    """Evaluate every objective of a spec over telemetry records."""
    metrics = MetricsRegistry.from_records(records)
    report = SLOReport(spec=spec)
    for objective in spec.objectives:
        value, burn, detail = _measure(objective, metrics, records)
        if value is None:
            value, passed = math.nan, True
        elif objective.kind == "served_fraction":
            passed = value >= objective.target
        else:
            passed = value <= objective.target
        report.results.append(
            ObjectiveResult(objective, value, passed, burn, detail)
        )
    return report


def render_slo(report: SLOReport) -> str:
    """Plain-text table of an SLO evaluation."""
    from repro.bench.harness import format_seconds, format_table

    def fmt(kind: str, value: float) -> str:
        if math.isnan(value):
            return "-"
        if kind in ("latency_quantile", "stage_seconds"):
            return format_seconds(value)
        if kind in ("breaker_trips", "staleness_bound"):
            return f"{value:.0f}"
        return f"{value * 100:.2f}%"

    rows = [
        [
            r.objective.name,
            r.objective.kind,
            fmt(r.objective.kind, r.value),
            fmt(r.objective.kind, r.objective.target),
            f"{r.burn_rate:.2f}x" if math.isfinite(r.burn_rate) else "inf",
            "PASS" if r.passed else "FAIL",
            r.detail,
        ]
        for r in report.results
    ]
    table = format_table(
        ["objective", "kind", "value", "target", "burn", "status", "detail"],
        rows,
        title=f"SLO evaluation: {report.spec.name}",
    )
    verdict = (
        "all objectives met"
        if report.ok
        else f"{len(report.violations)} objective(s) VIOLATED: "
        + ", ".join(r.objective.name for r in report.violations)
    )
    return f"{table}\n{verdict}"
