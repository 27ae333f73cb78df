"""Unit tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.graphs import chung_lu_edges, save_edge_list


class TestDatasets:
    def test_datasets_table(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("PK", "LJ", "OR", "TW", "TW-2010", "FR"):
            assert name in out


class TestProbe:
    def test_probe_output(self, capsys):
        assert main(["probe"]) == 0
        out = capsys.readouterr().out
        assert "read-seq-local" in out
        assert "seq_local_write_over_seq_remote_write" in out


class TestEmbed:
    def test_embed_named_dataset(self, capsys):
        assert main(["embed", "PK", "--threads", "4", "--dim", "8"]) == 0
        out = capsys.readouterr().out
        assert "SpMM ops" in out

    def test_embed_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        save_edge_list(path, chung_lu_edges(100, 500, seed=0))
        output = tmp_path / "emb.npy"
        code = main(
            [
                "embed",
                str(path),
                "--threads",
                "2",
                "--dim",
                "8",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        emb = np.load(output)
        assert emb.shape[1] == 8

    def test_embed_modes(self, capsys):
        assert (
            main(["embed", "PK", "--threads", "4", "--dim", "8", "--mode", "dram"])
            == 0
        )


class TestSpMM:
    def test_spmm_breakdown(self, capsys):
        assert main(["spmm", "PK", "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "get_dense_nnz" in out
        assert "Mnnz/s" in out

    def test_spmm_allocation_flag(self, capsys):
        assert (
            main(["spmm", "PK", "--threads", "4", "--allocation", "rr"]) == 0
        )


class TestCompare:
    def test_compare_arms(self, capsys):
        assert main(["compare", "PK", "--threads", "4", "--dim", "8"]) == 0
        out = capsys.readouterr().out
        for arm in ("OMeGa", "OMeGa-DRAM", "OMeGa-PM", "ProNE-DRAM", "ProNE-HM"):
            assert arm in out

    def test_compare_rejects_unknown_graph(self):
        with pytest.raises(SystemExit):
            main(["compare", "nope"])

    def test_compare_telemetry_export(self, tmp_path, capsys):
        out_path = tmp_path / "compare.jsonl"
        code = main(
            [
                "compare", "PK", "--threads", "4", "--dim", "8",
                "--telemetry-out", str(out_path),
            ]
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
        ]
        arm_events = [
            r for r in records
            if r.get("type") == "event" and r.get("name") == "arm"
        ]
        assert len(arm_events) == 5
        assert any(
            r.get("type") == "span" and r.get("name") == "embed"
            for r in records
        )


class TestCalibrate:
    def test_calibrate_exits_zero_when_in_band(self, capsys):
        assert main(["calibrate", "--graph", "PK"]) == 0
        out = capsys.readouterr().out
        assert "Calibration" in out
        assert "NO" not in out.split("measured")[1]

    def test_calibrate_telemetry_export(self, tmp_path, capsys):
        out_path = tmp_path / "calibrate.jsonl"
        assert (
            main(
                ["calibrate", "--graph", "PK", "--telemetry-out", str(out_path)]
            )
            == 0
        )
        records = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
        ]
        arms = [
            r for r in records
            if r.get("type") == "span" and r.get("name") == "calibrate_arm"
        ]
        points = [
            r for r in records
            if r.get("type") == "event"
            and r.get("name") == "calibration_point"
        ]
        assert len(arms) == 8
        assert len(points) == 7


class TestEmbedFaults:
    def _plan_path(self, tmp_path, *events):
        from repro.faults import FaultPlan

        return str(FaultPlan(events=events).save(tmp_path / "plan.json"))

    def test_crash_without_resume_fails(self, tmp_path, capsys):
        from repro.faults import FaultEvent

        plan = self._plan_path(
            tmp_path, FaultEvent("crash", "factorization")
        )
        code = main(
            [
                "embed", "PK", "--threads", "4", "--dim", "8",
                "--faults", plan,
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "injected crash at stage 'factorization'" in out
        assert "--resume" in out

    def test_crash_with_resume_recovers(self, tmp_path, capsys):
        from repro.faults import FaultEvent

        plan = self._plan_path(
            tmp_path, FaultEvent("crash", "factorization")
        )
        telemetry = tmp_path / "chaos.jsonl"
        code = main(
            [
                "embed", "PK", "--threads", "4", "--dim", "8",
                "--faults", plan, "--resume",
                "--telemetry-out", str(telemetry),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stage checkpoints recovered" in out
        assert "SpMM ops" in out
        metrics = {
            r["name"]: r.get("value")
            for r in map(json.loads, telemetry.read_text().splitlines())
            if r.get("type") == "metric"
        }
        assert metrics["checkpoint.recovered_stages"] > 0
        assert metrics["checkpoint.recovered_sim_seconds"] > 0

    def test_faultless_plan_runs_clean(self, tmp_path, capsys):
        plan = self._plan_path(tmp_path)
        code = main(
            [
                "embed", "PK", "--threads", "4", "--dim", "8",
                "--faults", plan,
            ]
        )
        assert code == 0
        assert "SpMM ops" in capsys.readouterr().out


class TestServeSim:
    ARGS = ["serve-sim", "PK", "--threads", "4", "--dim", "8"]

    def test_synthesized_trace_balanced(self, capsys):
        code = main(self.ARGS + ["--requests", "80"])
        assert code == 0
        out = capsys.readouterr().out
        assert "submitted" in out
        assert "accounting balanced" in out

    def test_fault_plan_replay_is_deterministic(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        trace = tmp_path / "trace.json"
        code = main(
            self.ARGS
            + [
                "--requests", "120", "--fault-seed", "7",
                "--save-faults", str(plan), "--save-trace", str(trace),
            ]
        )
        assert code == 0
        first = capsys.readouterr().out
        code = main(
            self.ARGS + ["--faults", str(plan), "--trace", str(trace)]
        )
        assert code == 0
        replay = capsys.readouterr().out
        # Identical counts: same trace + same plan => same outcome
        # (modulo the "written to" notices of the first run).
        first_lines = [
            line for line in first.splitlines() if "written to" not in line
        ]
        assert first_lines == replay.splitlines()

    def test_telemetry_has_breaker_series(self, tmp_path, capsys):
        out_path = tmp_path / "serve.jsonl"
        code = main(
            self.ARGS
            + [
                "--requests", "150", "--fault-seed", "3",
                "--telemetry-out", str(out_path),
            ]
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
        ]
        metrics = {
            r["name"]: r.get("value")
            for r in records
            if r.get("type") == "metric"
        }
        assert metrics.get("serve.unhandled_exceptions") == 0
        assert "serve.submitted" in metrics
        assert any(
            r.get("type") == "event" and r.get("name") == "serve_summary"
            for r in records
        )

    def test_resilience_toggles_run(self, capsys):
        code = main(
            self.ARGS
            + [
                "--requests", "60", "--no-breaker", "--no-shedding",
                "--no-deadline-aware",
            ]
        )
        assert code == 0
        assert "accounting balanced" in capsys.readouterr().out

    def test_unknown_graph_treated_as_missing_edge_list(self):
        # Like `embed`, the graph argument falls back to an edge-list
        # path when it is not a Table I name.
        with pytest.raises(FileNotFoundError):
            main(["serve-sim", "nope"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestExecBackendFlags:
    def test_embed_shared_memory_bit_identical(self, tmp_path):
        path = tmp_path / "graph.txt"
        save_edge_list(path, chung_lu_edges(120, 600, seed=1))
        serial_out = tmp_path / "serial.npy"
        shm_out = tmp_path / "shm.npy"
        base = ["embed", str(path), "--threads", "2", "--dim", "8"]
        assert main([*base, "--output", str(serial_out)]) == 0
        assert (
            main(
                [
                    *base,
                    "--exec-backend",
                    "shared_memory",
                    "--workers",
                    "2",
                    "--output",
                    str(shm_out),
                ]
            )
            == 0
        )
        assert np.array_equal(np.load(serial_out), np.load(shm_out))

    def test_spmm_accepts_backend_flags(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        save_edge_list(path, chung_lu_edges(80, 300, seed=2))
        code = main(
            [
                "spmm",
                str(path),
                "--threads",
                "2",
                "--dim",
                "4",
                "--exec-backend",
                "shared_memory",
                "--workers",
                "2",
            ]
        )
        assert code == 0

    def test_rejects_unknown_backend(self, tmp_path):
        path = tmp_path / "graph.txt"
        save_edge_list(path, chung_lu_edges(40, 100, seed=3))
        with pytest.raises(SystemExit):
            main(["embed", str(path), "--exec-backend", "gpu"])
