"""The perf-regression gate: determinism, baselining, and chaos detection.

The suite here runs the real pinned micro-bench (sub-second, pure cost
model), so these are integration tests of the acceptance criteria:

- an identical re-run passes against the pinned baseline and writes
  nothing: the baseline and the ``BENCH_omega.json`` trajectory stay
  byte-identical;
- a run with PM bandwidth deliberately derated (the existing
  ``pm_degrade`` fault) fails and *names* the regressed stages;
- a baseline file the run cannot be compared against is refused,
  naming the file, instead of passing every stage unchecked;
- a threshold that is not a finite number >= 0 is refused, and a stage
  that reads NaN or ±inf regresses, instead of passing every stage.
"""

import json
import math

import pytest

from repro.cli import main
from repro.obs.observatory import perfgate
from repro.obs.observatory.diff import REGRESSION_THRESHOLD, STATUS_REGRESSED
from repro.obs.observatory.perfgate import (
    DEFAULT_BASELINE,
    GateReport,
    GateRun,
    gate_rows,
    read_baseline,
    render_gate,
    run_perf_gate,
    run_suite,
)
from repro.obs.observatory.trend import DEFAULT_TRAJECTORY

#: Severe PM-bandwidth derate: mild factors hide behind the streaming/
#: compute overlap, 0.05 produces >50% simulated stage regressions.
CHAOS_PLAN = {
    "seed": 0,
    "events": [{"kind": "pm_degrade", "site": "pm", "factor": 0.05}],
}


@pytest.fixture(scope="module")
def clean_run():
    return run_suite()


@pytest.fixture(scope="module")
def chaos_plan_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos") / "plan.json"
    path.write_text(json.dumps(CHAOS_PLAN), encoding="utf-8")
    return path


class TestSuite:
    def test_stage_set(self, clean_run):
        assert set(clean_run.stages) == {
            "embed.graph_read", "embed.factorization", "embed.propagation",
            "embed.spmm", "embed.total", "spmm.total",
            "serve.warmup", "serve.p99_latency",
        }
        assert all(v > 0.0 for v in clean_run.stages.values())

    def test_deterministic_across_runs(self, clean_run):
        again = run_suite()
        assert again.stages == clean_run.stages
        assert again.manifest.run_id == clean_run.manifest.run_id

    def test_payload_deterministic_fields_only(self, clean_run):
        payload = clean_run.payload()
        assert payload["suite"] == "perf_gate"
        assert set(payload) == {"suite", "config_hash", "stages"}

    def test_spmm_span_is_the_products_seconds(self, clean_run):
        # The engine advances the cursor inside its own span; a second
        # advance by the caller used to make this span twice as wide.
        (span,) = [
            r
            for r in clean_run.session.records()
            if r["type"] == "span" and r["name"] == "spmm_micro"
        ]
        assert math.isclose(
            span["sim_seconds"], clean_run.stages["spmm.total"], rel_tol=1e-9
        )


def _regressed(rows):
    return [r.name for r in rows if r.status == STATUS_REGRESSED]


class TestCompare:
    def test_no_baseline_never_regresses(self, clean_run):
        rows = gate_rows(clean_run.stages, {}, REGRESSION_THRESHOLD)
        assert not _regressed(rows)
        assert all(r.a is None for r in rows)

    def test_identical_baseline_passes(self, clean_run):
        rows = gate_rows(
            clean_run.stages, clean_run.payload(), REGRESSION_THRESHOLD
        )
        assert not _regressed(rows)

    def test_slowdown_detected(self, clean_run):
        payload = clean_run.payload()
        payload["stages"] = {
            k: v / 2.0 for k, v in payload["stages"].items()
        }
        rows = gate_rows(clean_run.stages, payload, REGRESSION_THRESHOLD)
        assert _regressed(rows) == sorted(clean_run.stages)

    def test_title_prints_the_threshold_used(self, clean_run):
        report = GateReport(
            run=clean_run,
            threshold=0.004,
            rows=gate_rows(clean_run.stages, clean_run.payload(), 0.004),
        )
        assert render_gate(report).startswith("perf-gate (threshold 0.4%,")

    def test_only_the_runs_stages_are_listed(self, clean_run):
        payload = clean_run.payload()
        payload["stages"]["retired.stage"] = 1.0
        rows = gate_rows(clean_run.stages, payload, REGRESSION_THRESHOLD)
        assert [r.name for r in rows] == sorted(clean_run.stages)


class TestGateLifecycle:
    def test_bootstrap_rerun_and_chaos(self, tmp_path, chaos_plan_path):
        baseline = tmp_path / "perf_gate_baseline.json"
        # No gate run touches the trajectory the benchmark scripts own.
        trajectory = DEFAULT_TRAJECTORY.read_bytes()

        # 1. First clean run auto-pins the baseline.
        first = run_perf_gate(baseline)
        assert first.ok and first.baseline_updated
        assert json.loads(baseline.read_text("utf-8")) == first.run.payload()
        pinned = baseline.read_bytes()
        assert DEFAULT_TRAJECTORY.read_bytes() == trajectory

        # 2. Identical re-run passes and leaves the file byte-identical.
        second = run_perf_gate(baseline)
        assert second.ok and not second.baseline_updated
        assert second.baseline_path == baseline
        assert baseline.read_bytes() == pinned
        assert DEFAULT_TRAJECTORY.read_bytes() == trajectory

        # 3. Derated PM bandwidth: the gate fails and names the
        # regressed stages; it writes nothing.
        chaos = run_perf_gate(baseline, faults_path=chaos_plan_path)
        assert not chaos.ok
        regressed = {r.name for r in chaos.regressions}
        assert "embed.total" in regressed
        assert "spmm.total" in regressed
        assert "serve.p99_latency" not in regressed  # serve runs faultless
        assert not chaos.baseline_updated
        assert baseline.read_bytes() == pinned
        assert DEFAULT_TRAJECTORY.read_bytes() == trajectory

        # The rendered verdict names the stages (what CI surfaces).
        text = render_gate(chaos)
        assert "PERF GATE FAILED" in text
        assert "embed.total" in text

    def test_update_baseline_repins(self, tmp_path):
        baseline = tmp_path / "perf_gate_baseline.json"
        run_perf_gate(baseline)
        pinned = baseline.read_bytes()
        repin = run_perf_gate(baseline, update_baseline=True)
        assert repin.baseline_updated
        # Identical run: the re-pinned file cannot move.
        assert baseline.read_bytes() == pinned
        # A baseline the gate refuses is re-pinned, not compared.
        baseline.write_text("{}", encoding="utf-8")
        repin = run_perf_gate(baseline, update_baseline=True)
        assert repin.ok and repin.baseline_updated
        assert baseline.read_bytes() == pinned


class TestRefusedBaseline:
    """Without ``--update-baseline`` the gate raises, naming the file, on
    a baseline it cannot compare — each of these passed every stage."""

    def _refused(self, tmp_path, payload):
        baseline = tmp_path / "perf_gate_baseline.json"
        text = payload if isinstance(payload, str) else json.dumps(payload)
        baseline.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="perf_gate_baseline.json") as err:
            run_perf_gate(baseline)
        assert baseline.read_text(encoding="utf-8") == text
        return str(err.value)

    @pytest.mark.parametrize(
        "payload",
        [
            {"suite": "perf_gate", "config_hash": "0da684d7896c65b4"},
            {"config_hash": "0da684d7896c65b4", "stages": {"spmm.total": "1"}},
            '{"stages": {"spmm.total": NaN}}',
            "[]",
        ],
        ids=["no-stages", "string-stage", "nan-stage", "not-an-object"],
    )
    def test_malformed_file_refused(self, tmp_path, clean_run, payload):
        message = self._refused(tmp_path, payload)
        assert "finite numbers" in message

    def test_config_hash_mismatch_refused(self, tmp_path, clean_run):
        payload = {**clean_run.payload(), "config_hash": "0123456789abcdef"}
        message = self._refused(tmp_path, payload)
        assert "0123456789abcdef" in message
        assert clean_run.manifest.config_hash in message

    def test_missing_stage_refused(self, tmp_path, clean_run):
        payload = clean_run.payload()
        payload["stages"]["embed.totl"] = payload["stages"].pop("embed.total")
        message = self._refused(tmp_path, payload)
        assert "embed.total" in message


class TestCommittedBaseline:
    def test_repo_baseline_matches_current_code(self, clean_run):
        """The committed baseline must agree with the code as built —
        otherwise CI's perf-gate job and this checkout disagree."""
        assert DEFAULT_BASELINE.is_file(), (
            f"{DEFAULT_BASELINE} is missing; run"
            " `repro perf-gate --update-baseline`"
        )
        baseline = read_baseline(DEFAULT_BASELINE, clean_run)
        rows = gate_rows(clean_run.stages, baseline, REGRESSION_THRESHOLD)
        regressed = _regressed(rows)
        assert not regressed, f"stages regressed vs committed baseline: {regressed}"

    def test_repin_is_idempotent(self, clean_run):
        """``--update-baseline`` on a clean tree writes exactly the
        committed bytes, so re-pinning never shows up in a diff."""
        text = json.dumps(clean_run.payload(), sort_keys=True, indent=2) + "\n"
        assert DEFAULT_BASELINE.read_bytes() == text.encode("utf-8")


class TestThresholdDomain:
    """A threshold that is not a finite number >= 0 is refused before the
    suite runs: ``nan`` and ``inf`` used to pass every stage and ``-0.5``
    to fail unchanged ones."""

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-0.5"])
    def test_refused(self, tmp_path, monkeypatch, threshold):
        def no_suite(*args, **kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(perfgate, "run_suite", no_suite)
        with pytest.raises(ValueError, match="finite number >= 0"):
            run_perf_gate(tmp_path / "b.json", threshold=float(threshold))
        assert not (tmp_path / "b.json").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-0.5"])
    @pytest.mark.parametrize("command", ["perf-gate", "diff"])
    def test_cli_flag_refused(self, tmp_path, capsys, command, threshold):
        argv = [command, "--threshold", threshold]
        if command == "diff":
            stream = tmp_path / "t.jsonl"
            stream.write_text('{"type": "meta"}\n', encoding="utf-8")
            argv[1:1] = [str(stream), str(stream)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code != 0
        err = capsys.readouterr().err
        assert "finite number >= 0" in err and threshold in err


class TestNonFiniteStage:
    """A stage the cost model prices at NaN or ±inf regresses: ``nan >
    base * 1.05`` is False, so such a stage used to pass the gate."""

    def _with_stage(self, monkeypatch, clean_run, value):
        stages = {**clean_run.stages, "spmm.total": value}
        monkeypatch.setattr(
            perfgate,
            "run_suite",
            lambda *a, **k: GateRun(session=clean_run.session, stages=stages),
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_fails_the_gate_and_is_named(
        self, tmp_path, monkeypatch, clean_run, value
    ):
        baseline = tmp_path / "perf_gate_baseline.json"
        baseline.write_text(json.dumps(clean_run.payload()), encoding="utf-8")
        self._with_stage(monkeypatch, clean_run, value)
        report = run_perf_gate(baseline)
        assert not report.ok
        assert [r.name for r in report.regressions] == ["spmm.total"]
        assert render_gate(report).endswith(
            "PERF GATE FAILED — regressed stages: spmm.total"
        )

    def test_never_pinned(self, tmp_path, monkeypatch, clean_run):
        baseline = tmp_path / "perf_gate_baseline.json"
        self._with_stage(monkeypatch, clean_run, float("nan"))
        report = run_perf_gate(baseline)
        assert not report.ok and not report.baseline_updated
        assert not baseline.exists()
