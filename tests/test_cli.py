"""Unit tests for the command-line interface."""

import argparse
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.cli.scaffold import telemetry
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

    @staticmethod
    def _simulated_seconds(out: str) -> float:
        value, unit = re.search(
            r"embedded [\d,]+ nodes in ([\d.]+) (\w+) simulated", out
        ).groups()
        scale = {"us": 1e-6, "ms": 1e-3, "s": 1.0, "min": 60.0, "h": 3600.0}
        return float(value) * scale[unit]

    def test_pm_degrade_plan_slows_the_run(self, tmp_path, capsys):
        from repro.faults import FaultEvent

        args = ["embed", "PK", "--threads", "4", "--dim", "8"]
        assert main(args) == 0
        clean = self._simulated_seconds(capsys.readouterr().out)
        plan = self._plan_path(
            tmp_path, FaultEvent("pm_degrade", "pm", factor=0.25)
        )
        assert main(args + ["--faults", plan]) == 0
        assert self._simulated_seconds(capsys.readouterr().out) > clean

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

    @pytest.mark.parametrize(
        "argv, field",
        [
            ("embed PK --threads 0", "n_threads"),
            ("embed PK --dim 0", "dim"),
            ("spmm PK --workers 0", "n_workers"),
            ("compare PK --threads -2", "n_threads"),
            ("serve-sim PK --shards 1 --replicas -1", "n_replicas"),
            ("serve-sim PK --shards 1 --checkpoint-interval -3",
             "checkpoint_interval"),
            ("serve-sim PK --shards 1 --staleness-bound -1",
             "staleness_bound"),
            ("serve-sim PK --shards 1 --reshard -1", "reshard_imbalance"),
            ("serve-sim PK --shards 1 --queue-limit 0", "queue_limit"),
            ("serve-sim PK --shards 1 --load 0", "load"),
            ("serve-sim PK --shards -1", "n_shards"),
            ("serve-sim PK --requests -1", "n_requests"),
        ],
    )
    def test_an_out_of_range_value_is_a_usage_error(
        self, argv, field, capsys
    ):
        argv = argv.split()
        flag = argv[-2]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        *_, last = capsys.readouterr().err.strip().splitlines()
        assert last.startswith(
            f"repro {argv[0]}: error: argument {flag}: {field} must be"
        ), last


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


# -- the command table ----------------------------------------------------

_REPO = Path(__file__).resolve().parents[1]


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _surface(parser):
    return [
        (
            tuple(action.option_strings),
            action.dest,
            action.type.__name__ if action.type else None,
            action.default,
            list(action.choices) if action.choices is not None else None,
            action.nargs,
            action.required,
            action.metavar,
            type(action).__name__,
        )
        for action in parser._actions
        if not isinstance(
            action, (argparse._HelpAction, argparse._SubParsersAction)
        )
    ]


def test_parser_surface():
    """Every command and flag, against the parser of the commit before
    ``cli.py`` became a package (PARSER_SURFACE below, generated there):
    subcommands in order, then per argument ``(option strings, dest,
    type, default, choices, nargs, required, metavar, action class)``."""
    found = {}
    for name, parser in _subparsers(build_parser()).items():
        found[name] = _surface(parser)
        for sub, subparser in _subparsers(parser).items():
            found[f"{name} {sub}"] = _surface(subparser)
    assert list(found) == list(PARSER_SURFACE)
    assert [n for n in found if " " not in n] == list(COMMANDS)
    for name, rows in PARSER_SURFACE.items():
        assert found[name] == rows, name


def _documented_commands():
    """``python -m repro …`` lines of the docs: continuations joined,
    trailing comments stripped, placeholder lines skipped."""
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        text = (_REPO / doc).read_text("utf-8").replace("\\\n", " ")
        for match in re.finditer(r"python -m repro ([^`\n]*)", text):
            line = match.group(1).split("#")[0]
            if "<" not in line and "…" not in line:
                yield doc, shlex.split(line)


def test_documented_commands_parse():
    commands = list(_documented_commands())
    assert len(commands) >= 20
    parser = build_parser()
    for doc, argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{doc}: python -m repro {' '.join(argv)}")


def test_every_command_has_help(capsys):
    assert len(COMMANDS) == 15
    for name in COMMANDS:
        with pytest.raises(SystemExit) as exit_info:
            main([name, "--help"])
        assert exit_info.value.code == 0, name
        assert f"repro {name}" in capsys.readouterr().out


class TestTelemetryScaffold:
    def test_stream_is_closed_when_the_block_raises(self, tmp_path, capsys):
        from repro.obs.live import load_records, read_stream

        path = tmp_path / "cut.jsonl"
        args = argparse.Namespace(telemetry_out=str(path), follow=False)
        with pytest.raises(RuntimeError, match="mid-run"):
            with telemetry(args, {"command": "test"}) as session:
                session.event("before")
                raise RuntimeError("mid-run")
        assert f"telemetry written to {path}" in capsys.readouterr().out
        records, skipped = read_stream(path)
        assert skipped == 0
        assert records[-1]["type"] == "stream_closed"
        manifests = [r for r in load_records(path) if r["type"] == "manifest"]
        assert len(manifests) == 1 and not manifests[0].get("synthesized")

    def test_follow_requires_a_file(self):
        args = argparse.Namespace(telemetry_out=None, follow=True)
        with pytest.raises(SystemExit) as exit_info:
            with telemetry(args, {}):
                pass
        assert str(exit_info.value) == "--follow requires --telemetry-out PATH"

    def test_force_yields_a_session_without_a_file(self, capsys):
        args = argparse.Namespace(telemetry_out=None)
        with telemetry(args, {}) as session:
            assert session is None
        with telemetry(args, {"command": "test"}, force=True) as session:
            assert session.stream is None
            session.event("kept")
        assert session.records()
        assert capsys.readouterr().out == ""


# fmt: off
PARSER_SURFACE = {
    'datasets': [
    ],
    'probe': [
    ],
    'calibrate': [
        (('--graph',), 'graph', None, 'LJ', None, None, False, None, '_StoreAction'),
        (('--telemetry-out',), 'telemetry_out', None, None, None, None, False, 'PATH', '_StoreAction'),
    ],
    'embed': [
        ((), 'graph', None, None, None, None, True, None, '_StoreAction'),
        (('--output',), 'output', None, None, None, None, False, None, '_StoreAction'),
        (('--faults',), 'faults', None, None, None, None, False, 'PLAN', '_StoreAction'),
        (('--resume',), 'resume', None, False, None, 0, False, None, '_StoreTrueAction'),
        (('--slo',), 'slo', None, None, None, None, False, 'SPEC', '_StoreAction'),
        (('--threads',), 'threads', 'int', 16, None, None, False, None, '_StoreAction'),
        (('--dim',), 'dim', 'int', 32, None, None, False, None, '_StoreAction'),
        (('--mode',), 'mode', None, 'hm', ['hm', 'dram', 'pm'], None, False, None, '_StoreAction'),
        (('--allocation',), 'allocation', None, 'eata', ['rr', 'natural-rr', 'wata', 'eata'], None, False, None, '_StoreAction'),
        (('--placement',), 'placement', None, 'nadp', ['nadp', 'interleave', 'local'], None, False, None, '_StoreAction'),
        (('--no-prefetch',), 'no_prefetch', None, False, None, 0, False, None, '_StoreTrueAction'),
        (('--exec-backend',), 'exec_backend', None, None, ['simulated', 'shared_memory', 'threads'], None, False, None, '_StoreAction'),
        (('--workers',), 'workers', 'int', None, None, None, False, 'N', '_StoreAction'),
        (('--telemetry-out',), 'telemetry_out', None, None, None, None, False, 'PATH', '_StoreAction'),
        (('--follow',), 'follow', None, False, None, 0, False, None, '_StoreTrueAction'),
    ],
    'spmm': [
        ((), 'graph', None, None, None, None, True, None, '_StoreAction'),
        (('--repeat',), 'repeat', 'int', 1, None, None, False, 'N', '_StoreAction'),
        (('--threads',), 'threads', 'int', 16, None, None, False, None, '_StoreAction'),
        (('--dim',), 'dim', 'int', 32, None, None, False, None, '_StoreAction'),
        (('--mode',), 'mode', None, 'hm', ['hm', 'dram', 'pm'], None, False, None, '_StoreAction'),
        (('--allocation',), 'allocation', None, 'eata', ['rr', 'natural-rr', 'wata', 'eata'], None, False, None, '_StoreAction'),
        (('--placement',), 'placement', None, 'nadp', ['nadp', 'interleave', 'local'], None, False, None, '_StoreAction'),
        (('--no-prefetch',), 'no_prefetch', None, False, None, 0, False, None, '_StoreTrueAction'),
        (('--exec-backend',), 'exec_backend', None, None, ['simulated', 'shared_memory', 'threads'], None, False, None, '_StoreAction'),
        (('--workers',), 'workers', 'int', None, None, None, False, 'N', '_StoreAction'),
        (('--telemetry-out',), 'telemetry_out', None, None, None, None, False, 'PATH', '_StoreAction'),
        (('--follow',), 'follow', None, False, None, 0, False, None, '_StoreTrueAction'),
    ],
    'compare': [
        ((), 'graph', None, None, ['PK', 'LJ', 'OR', 'TW', 'TW-2010', 'FR'], None, True, None, '_StoreAction'),
        (('--threads',), 'threads', 'int', 16, None, None, False, None, '_StoreAction'),
        (('--dim',), 'dim', 'int', 32, None, None, False, None, '_StoreAction'),
        (('--faults',), 'faults', None, None, None, None, False, 'PLAN', '_StoreAction'),
        (('--exec-backend',), 'exec_backend', None, None, ['simulated', 'shared_memory', 'threads'], None, False, None, '_StoreAction'),
        (('--workers',), 'workers', 'int', None, None, None, False, 'N', '_StoreAction'),
        (('--telemetry-out',), 'telemetry_out', None, None, None, None, False, 'PATH', '_StoreAction'),
        (('--follow',), 'follow', None, False, None, 0, False, None, '_StoreTrueAction'),
    ],
    'report': [
        ((), 'trace', None, None, None, None, True, None, '_StoreAction'),
    ],
    'diff': [
        ((), 'run_a', None, None, None, None, True, None, '_StoreAction'),
        ((), 'run_b', None, None, None, None, True, None, '_StoreAction'),
        (('--threshold',), 'threshold', 'regression_threshold', 0.05, None, None, False, None, '_StoreAction'),
        (('--profile',), 'profile', None, False, None, 0, False, None, '_StoreTrueAction'),
        (('--shard-placement',), 'shard_placement', None, False, None, 0, False, None, '_StoreTrueAction'),
        (('--attribution',), 'attribution', None, False, None, 0, False, None, '_StoreTrueAction'),
    ],
    'profile': [
        ((), 'trace', None, None, None, None, True, None, '_StoreAction'),
        (('--out',), 'out', None, None, None, None, False, 'PATH', '_StoreAction'),
        (('--clock',), 'clock', None, 'sim', ['sim', 'wall'], None, False, None, '_StoreAction'),
        (('--top',), 'top', 'int', 15, None, None, False, None, '_StoreAction'),
    ],
    'perf-gate': [
        (('--threshold',), 'threshold', 'regression_threshold', 0.05, None, None, False, None, '_StoreAction'),
        (('--update-baseline',), 'update_baseline', None, False, None, 0, False, None, '_StoreTrueAction'),
        (('--faults',), 'faults', None, None, None, None, False, 'PLAN', '_StoreAction'),
        (('--telemetry-out',), 'telemetry_out', None, None, None, None, False, 'PATH', '_StoreAction'),
    ],
    'serve-sim': [
        ((), 'graph', None, None, None, None, True, None, '_StoreAction'),
        (('--trace',), 'trace', None, None, None, None, False, 'PATH', '_StoreAction'),
        (('--requests',), 'requests', 'int', 500, None, None, False, None, '_StoreAction'),
        (('--trace-seed',), 'trace_seed', 'int', 0, None, None, False, None, '_StoreAction'),
        (('--load',), 'load', 'float', 0.8, None, None, False, None, '_StoreAction'),
        (('--save-trace',), 'save_trace', None, None, None, None, False, 'PATH', '_StoreAction'),
        (('--faults',), 'faults', None, None, None, None, False, 'PLAN', '_StoreAction'),
        (('--fault-seed',), 'fault_seed', 'int', None, None, None, False, None, '_StoreAction'),
        (('--fault-events',), 'fault_events', 'int', 4, None, None, False, None, '_StoreAction'),
        (('--save-faults',), 'save_faults', None, None, None, None, False, 'PATH', '_StoreAction'),
        (('--queue-limit',), 'queue_limit', 'int', 64, None, None, False, None, '_StoreAction'),
        (('--no-breaker',), 'no_breaker', None, False, None, 0, False, None, '_StoreTrueAction'),
        (('--no-shedding',), 'no_shedding', None, False, None, 0, False, None, '_StoreTrueAction'),
        (('--no-deadline-aware',), 'no_deadline_aware', None, False, None, 0, False, None, '_StoreTrueAction'),
        (('--slo',), 'slo', None, None, None, None, False, 'SPEC', '_StoreAction'),
        (('--shards',), 'shards', 'int', 0, None, None, False, 'N', '_StoreAction'),
        (('--no-supervisor',), 'no_supervisor', None, False, None, 0, False, None, '_StoreTrueAction'),
        (('--checkpoint-interval',), 'checkpoint_interval', 'int', 0, None, None, False, 'N', '_StoreAction'),
        (('--staleness-bound',), 'staleness_bound', 'int', 0, None, None, False, 'V', '_StoreAction'),
        (('--replicas',), 'replicas', 'int', 0, None, None, False, 'N', '_StoreAction'),
        (('--reshard',), 'reshard', 'float', 0.0, None, None, False, 'RATIO', '_StoreAction'),
        (('--threads',), 'threads', 'int', 16, None, None, False, None, '_StoreAction'),
        (('--dim',), 'dim', 'int', 32, None, None, False, None, '_StoreAction'),
        (('--mode',), 'mode', None, 'hm', ['hm', 'dram', 'pm'], None, False, None, '_StoreAction'),
        (('--allocation',), 'allocation', None, 'eata', ['rr', 'natural-rr', 'wata', 'eata'], None, False, None, '_StoreAction'),
        (('--placement',), 'placement', None, 'nadp', ['nadp', 'interleave', 'local'], None, False, None, '_StoreAction'),
        (('--no-prefetch',), 'no_prefetch', None, False, None, 0, False, None, '_StoreTrueAction'),
        (('--exec-backend',), 'exec_backend', None, None, ['simulated', 'shared_memory', 'threads'], None, False, None, '_StoreAction'),
        (('--workers',), 'workers', 'int', None, None, None, False, 'N', '_StoreAction'),
        (('--telemetry-out',), 'telemetry_out', None, None, None, None, False, 'PATH', '_StoreAction'),
        (('--follow',), 'follow', None, False, None, 0, False, None, '_StoreTrueAction'),
    ],
    'top': [
        ((), 'stream', None, None, None, None, True, None, '_StoreAction'),
        (('--once',), 'once', None, False, None, 0, False, None, '_StoreTrueAction'),
        (('--interval',), 'interval', 'float', 0.5, None, None, False, 'S', '_StoreAction'),
        (('--frames',), 'frames', 'int', 0, None, None, False, 'N', '_StoreAction'),
        (('--slo',), 'slo', None, None, None, None, False, 'SPEC', '_StoreAction'),
    ],
    'why': [
        ((), 'stream', None, None, None, None, True, None, '_StoreAction'),
        ((), 'trace_id', None, None, None, '?', False, None, '_StoreAction'),
        (('--worst',), 'worst', 'int', 3, None, None, False, 'N', '_StoreAction'),
        (('--klass',), 'klass', None, None, None, None, False, 'CLASS', '_StoreAction'),
    ],
    'attribute': [
        ((), 'stream', None, None, None, None, True, None, '_StoreAction'),
        (('--format',), 'format', None, 'table', ['table', 'json'], None, False, None, '_StoreAction'),
        (('--check',), 'check', None, False, None, 0, False, None, '_StoreTrueAction'),
    ],
    'trend': [
        (('--trajectory',), 'trajectory', None, None, None, None, False, 'PATH', '_StoreAction'),
        (('--prefix',), 'prefix', None, None, None, None, False, 'P', '_StoreAction'),
    ],
}
# fmt: on
