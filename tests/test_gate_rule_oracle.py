"""Differential oracle for the one regression rule of the two gates.

``repro perf-gate`` used to judge its stages with its own
``compare_to_baseline`` while ``repro diff`` judged every series with
``_diff_series``; both wrote ``b > a * (1 + threshold)`` out.  The gate
now takes its rows from :func:`~repro.obs.observatory.diff.diff_series`
(through :func:`~repro.obs.observatory.perfgate.gate_rows`).  Both old
comparators are kept here verbatim as the reference: on every finite
threshold >= 0 and finite stage seconds, the folded gate must regress
exactly the stages the old gate did, and ``diff_series`` must give every
row the status ``_diff_series`` gave it.

Outside that domain the rule changed on purpose, and
:class:`TestChangedDomain` pins it: a threshold that is not a finite
number >= 0 raises, and a non-finite candidate regresses.
"""

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.observatory.diff import (
    STATUS_ADDED,
    STATUS_IMPROVED,
    STATUS_REGRESSED,
    STATUS_REMOVED,
    STATUS_UNCHANGED,
    DeltaRow,
    diff_series,
)
from repro.obs.observatory.perfgate import gate_rows

# ---------------------------------------------------------------------------
# The reference: both comparators as they stood before the fold
# ---------------------------------------------------------------------------


@dataclass
class StageVerdict:
    """Comparison of one stage against the baseline."""

    stage: str
    baseline: float | None
    current: float
    regressed: bool

    @property
    def ratio(self) -> float | None:
        if self.baseline is None or self.baseline == 0.0:
            return None
        return (self.current - self.baseline) / self.baseline


def compare_to_baseline(
    run: Any,
    baseline: dict[str, Any],
    threshold: float = 0.05,
) -> list[StageVerdict]:
    """Stage-by-stage verdicts against a baseline payload."""
    baseline_stages = baseline.get("stages", {})
    verdicts = []
    for stage, current in sorted(run.stages.items()):
        base = baseline_stages.get(stage)
        regressed = base is not None and current > base * (1.0 + threshold)
        verdicts.append(
            StageVerdict(
                stage=stage,
                baseline=base,
                current=current,
                regressed=regressed,
            )
        )
    return verdicts


def _diff_series(
    group: str,
    a: dict[str, float],
    b: dict[str, float],
    threshold: float,
    gated: bool,
) -> list[DeltaRow]:
    rows = []
    for name in sorted(set(a) | set(b)):
        va, vb = a.get(name), b.get(name)
        if va is None:
            status = STATUS_ADDED
        elif vb is None:
            status = STATUS_REMOVED
        elif gated and vb > va * (1.0 + threshold):
            status = STATUS_REGRESSED
        elif gated and vb < va * (1.0 - threshold):
            status = STATUS_IMPROVED
        else:
            status = STATUS_UNCHANGED
        rows.append(DeltaRow(group=group, name=name, a=va, b=vb, status=status))
    return rows


# ---------------------------------------------------------------------------
# Strategies: stage dicts that share, miss, zero, tie and sit on the edge
# ---------------------------------------------------------------------------

STAGES = ("embed.total", "embed.spmm", "spmm.total", "serve.warmup", "x")

thresholds = st.one_of(
    st.sampled_from([0.0, 0.05, 0.1, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)
seconds = st.one_of(
    st.sampled_from([0.0, 1e-6, 2.57e-3, 1.0]),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
)


@st.composite
def stage_pairs(draw):
    """``(baseline, candidate, threshold)`` with every relation the rule
    distinguishes: a key on one side only, zeros, equal values and a
    candidate at exactly ``a * (1 + t)`` / ``a * (1 - t)``."""
    threshold = draw(thresholds)
    baseline: dict[str, float] = {}
    candidate: dict[str, float] = {}
    for stage in STAGES:
        shape = draw(
            st.sampled_from(
                ["both", "equal", "upper", "lower", "base_only", "cand_only",
                 "neither"]
            )
        )
        a, b = draw(seconds), draw(seconds)
        if shape in ("both", "base_only"):
            baseline[stage] = a
        if shape in ("both", "cand_only"):
            candidate[stage] = b
        if shape == "equal":
            baseline[stage] = candidate[stage] = a
        elif shape == "upper":
            baseline[stage], candidate[stage] = a, a * (1.0 + threshold)
        elif shape == "lower":
            baseline[stage], candidate[stage] = a, a * (1.0 - threshold)
    return baseline, candidate, threshold


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


class TestGateAgreesWithParent:
    @settings(max_examples=400, deadline=None)
    @given(stage_pairs())
    def test_regressed_set_and_rows(self, case):
        baseline, stages, threshold = case
        payload = {"stages": baseline}
        old = compare_to_baseline(
            SimpleNamespace(stages=stages), payload, threshold
        )
        new = gate_rows(stages, payload, threshold)
        assert [r.name for r in new] == [v.stage for v in old]
        assert {r.name for r in new if r.status == STATUS_REGRESSED} == {
            v.stage for v in old if v.regressed
        }
        for row, verdict in zip(new, old):
            assert (row.a, row.b) == (verdict.baseline, verdict.current)
            assert row.ratio == verdict.ratio

    def test_no_baseline_payload(self):
        stages = {"embed.total": 1.0, "spmm.total": 0.0}
        rows = gate_rows(stages, {}, 0.05)
        assert [r.status for r in rows] == [STATUS_ADDED, STATUS_ADDED]
        assert not any(v.regressed for v in compare_to_baseline(
            SimpleNamespace(stages=stages), {}, 0.05
        ))


class TestDiffAgreesWithParent:
    @settings(max_examples=400, deadline=None)
    @given(stage_pairs(), st.booleans())
    def test_statuses(self, case, gated):
        a, b, threshold = case
        assert diff_series("stage", a, b, threshold, gated) == _diff_series(
            "stage", a, b, threshold, gated
        )


class TestChangedDomain:
    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.5])
    def test_threshold_outside_the_domain_raises(self, threshold):
        with pytest.raises(ValueError, match=repr(threshold)):
            diff_series("stage", {"s": 1.0}, {"s": 1.0}, threshold, True)
        with pytest.raises(ValueError, match=repr(threshold)):
            gate_rows({"s": 1.0}, {"stages": {"s": 1.0}}, threshold)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_candidate_regresses(self, value):
        rows = diff_series(
            "stage", {"s": 1.0}, {"s": value, "new": value}, 0.05, True
        )
        assert [r.status for r in rows] == [STATUS_REGRESSED] * 2
        (row,) = gate_rows({"s": value}, {"stages": {"s": 1.0}}, 0.05)
        assert row.status == STATUS_REGRESSED

    def test_ungated_series_never_regress(self):
        rows = diff_series("metric", {"m": 1.0}, {"m": float("nan")}, 0.05, False)
        assert [r.status for r in rows] == [STATUS_UNCHANGED]
