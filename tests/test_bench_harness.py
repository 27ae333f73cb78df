"""Unit tests for the benchmark harness helpers."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench import (
    format_seconds,
    format_table,
    geometric_mean,
    project_full_scale,
)
from repro.obs.observatory.trend import (
    DEFAULT_TRAJECTORY,
    extract_point_series,
    load_trajectory,
    trajectory_series,
)


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_skips_nans(self):
        assert geometric_mean([2.0, float("nan"), 8.0]) == pytest.approx(4.0)

    def test_all_invalid(self):
        assert np.isnan(geometric_mean([float("nan"), -1.0]))


class TestProjection:
    def test_multiplies_by_scale(self):
        assert project_full_scale(2.0, 512) == 1024.0

    def test_invalid_scale(self):
        with pytest.raises(ValueError, match="scale"):
            project_full_scale(1.0, 0)


class TestFormatting:
    def test_format_seconds_ranges(self):
        assert format_seconds(2 * 3600) == "2.00 h"
        assert format_seconds(120) == "2.00 min"
        assert format_seconds(1.5) == "1.50 s"
        assert format_seconds(0.002) == "2.00 ms"
        assert format_seconds(2e-6) == "2.0 us"

    def test_format_seconds_oom(self):
        assert format_seconds(float("nan")) == "OOM"

    def test_format_table_alignment(self):
        table = format_table(
            ["graph", "time"],
            [["PK", "1.0 s"], ["TW-2010", "3.0 s"]],
            title="Demo",
        )
        lines = table.splitlines()
        assert lines[0] == "Demo"
        assert "graph" in lines[1]
        assert lines[2].startswith("-")
        assert "TW-2010" in table

    def test_format_table_empty(self):
        table = format_table(["a"], [])
        assert "a" in table


@pytest.fixture(scope="module")
def pairs():
    """The ``benchmarks/pairs.py`` script, imported as a module."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPairsVerdict:
    """``benchmarks/pairs.py``: the alternating-pairs rule, as code."""

    @pytest.fixture(scope="class")
    def verdict(self, pairs):
        return pairs.verdict

    @pytest.mark.parametrize(
        "parent, change, better, bound, expected",
        [
            # Every pair won, medians further apart than the parent's IQR.
            ([0.70, 0.72, 0.71, 0.73], [1.40, 1.50, 1.45, 1.47], "higher", 0.2, "gain"),
            # Ties count for neither side; equal medians are inside any bound.
            ([1.0, 1.0], [1.0, 1.0], "lower", 0.03, "ok"),
            ([1.0, 1.1, 1.0, 1.05], [1.5, 1.6, 1.55, 1.5], "lower", 0.2, "WORSE"),
            # A parent spread wider than the bound cannot support a verdict.
            ([1.0, 2.0, 1.0, 2.05], [1.5, 1.6, 1.55, 1.5], "lower", 0.2, "unresolved"),
            # Won everywhere, but by less than the parent's own spread.
            ([1.00, 1.05, 1.10, 1.15], [1.01, 1.06, 1.11, 1.16], "higher", 0.2, "ok"),
        ],
    )
    def test_rule(self, verdict, parent, change, better, bound, expected):
        assert verdict(parent, change, better, bound)[1] == expected


class TestPairsLayers:
    """``pairs.py --layers``: per-layer rows reported, never judged."""

    SPEC = {
        "end_to_end": [
            {"name": "op", "unit": "x", "better": "higher", "bound": 0.2}
        ],
        "per_layer": [
            {"name": "lat_us", "unit": "us", "better": "lower"},
            {"name": "self_s", "unit": "s", "better": "lower"},
        ],
    }

    def test_rows_in_the_order_named(self, pairs):
        rows = pairs.layer_rows("self_s,lat_us", self.SPEC)
        assert [row["name"] for row in rows] == ["self_s", "lat_us"]
        assert pairs.layer_rows("", self.SPEC) == []

    def test_unknown_row_is_refused(self, pairs):
        with pytest.raises(SystemExit, match="no per-layer row named nope"):
            pairs.layer_rows("lat_us,nope", self.SPEC)

    def test_summary_is_medians_quartiles_and_wins(self, pairs):
        text, wins = pairs.summary(
            [100, 110, 120, 130], [60, 70, 80, 135], "lower"
        )
        assert wins == 3
        assert text == (
            "115 [102.5-127.5] -> 75 [62.5-121.25] | 3/4 wins, 0 ties"
        )

    def test_one_traced_run_per_side_per_pair(
        self, pairs, tmp_path, monkeypatch, capsys
    ):
        for side in ("p", "c"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "BENCHMARK.json").write_text(
                json.dumps(self.SPEC)
            )
        calls = []

        def fake_run(tree, workload, seed, trace=0):
            calls.append((tree.name, seed, trace))
            value = 2.0 if tree.name == "c" else 1.0
            names = ["lat_us", "self_s"] if trace else ["op"]
            return {
                "correct": True,
                "metrics": {name: {"value": value} for name in names},
            }

        monkeypatch.setattr(pairs, "run_once", fake_run)
        monkeypatch.setattr(sys, "argv", [
            "pairs.py", "--parent", str(tmp_path / "p"),
            "--change", str(tmp_path / "c"), "--workload", "w",
            "--pairs", "2", "--layers", "lat_us",
        ])
        assert pairs.main() == 0
        assert calls == [
            ("p", 100, 0), ("c", 100, 0), ("p", 100, 1), ("c", 100, 1),
            ("c", 101, 0), ("p", 101, 0), ("c", 101, 1), ("p", 101, 1),
        ]
        out = capsys.readouterr().out
        assert "op (x, higher is better, bound 0.2): " in out
        assert (
            "lat_us (us, lower is better): 1 [1-1] -> 2 [2-2]"
            " | 0/2 wins, 0 ties\n" in out
        )
        assert "self_s" not in out


class TestPairsRunOnce:
    """``pairs.run_once`` keeps why a run failed, not only that it did."""

    def test_check_failed_lines_come_back(self, pairs, tmp_path):
        stub = tmp_path / "benchmarks" / "layered" / "run.py"
        stub.parent.mkdir(parents=True)
        stub.write_text(
            "import json\n"
            "print('serve_sharded seed 3')\n"
            "print('  CHECK FAILED: lookup != table after updates')\n"
            "print('  CHECK FAILED: a /dev/shm segment outlived the run')\n"
            "print(json.dumps({'correct': False, 'metrics': {}}))\n"
        )
        result = pairs.run_once(tmp_path, "serve_sharded", 3)
        assert result["correct"] is False
        assert result["checks_failed"] == [
            "lookup != table after updates",
            "a /dev/shm segment outlived the run",
        ]


class TestPairsRecord:
    """``pairs.py --record``: one trajectory entry per run, read back by
    ``repro trend``."""

    def test_one_entry_per_run(self, pairs, tmp_path, monkeypatch):
        for side in ("p", "c"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "BENCHMARK.json").write_text(
                json.dumps(TestPairsLayers.SPEC)
            )

        def fake_run(tree, workload, seed, trace=0):
            value = 2.0 if tree.name == "c" else 1.0
            return {"correct": True, "metrics": {"op": {"value": value}}}

        monkeypatch.setattr(pairs, "run_once", fake_run)
        monkeypatch.setattr(pairs, "tree_sha", lambda tree: f"{tree.name}0")
        trajectory = tmp_path / "BENCH.json"
        monkeypatch.setattr(sys, "argv", [
            "pairs.py", "--parent", str(tmp_path / "p"),
            "--change", str(tmp_path / "c"), "--workload", "w",
            "--pairs", "2", "--seed-base", "7", "--record", str(trajectory),
        ])
        assert pairs.main() == 0
        [entry] = load_trajectory(trajectory)
        assert entry == {
            "suite": "pairs",
            "schema": 1,
            "workload": "w",
            "parent_sha": "p0",
            "change_sha": "c0",
            "seeds": [7, 8],
            "failed_runs": 0,
            "failed_checks": [],
            "host": {"nproc": len(os.sched_getaffinity(0))},
            "metrics": {
                "op": {
                    "unit": "x",
                    "better": "higher",
                    "bound": 0.2,
                    "parent": [1.0, 1.0, 1.0],
                    "change": [2.0, 2.0, 2.0],
                    "wins": 2,
                    "ties": 0,
                    "verdict": "gain",
                }
            },
        }
        assert extract_point_series(entry) == {"pairs.w.op.ratio": 2.0}

    def test_failed_checks_are_kept(self, pairs, tmp_path, monkeypatch,
                                    capsys):
        for side in ("p", "c"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "BENCHMARK.json").write_text(
                json.dumps(TestPairsLayers.SPEC)
            )

        def fake_run(tree, workload, seed, trace=0):
            failed = tree.name == "c" and seed == 8
            return {
                "correct": not failed,
                "metrics": {"op": {"value": 1.0}},
                "checks_failed": ["lookup != table"] if failed else [],
            }

        monkeypatch.setattr(pairs, "run_once", fake_run)
        monkeypatch.setattr(pairs, "tree_sha", lambda tree: f"{tree.name}0")
        trajectory = tmp_path / "BENCH.json"
        monkeypatch.setattr(sys, "argv", [
            "pairs.py", "--parent", str(tmp_path / "p"),
            "--change", str(tmp_path / "c"), "--workload", "w",
            "--pairs", "2", "--seed-base", "7", "--record", str(trajectory),
        ])
        assert pairs.main() == 1
        assert "| FAILED |\n  CHECK FAILED: lookup != table\n" in (
            capsys.readouterr().out
        )
        [entry] = load_trajectory(trajectory)
        assert entry["failed_runs"] == 1
        assert entry["failed_checks"] == [{
            "pair": 1, "side": "change", "seed": 8, "trace": 0,
            "messages": ["lookup != table"],
        }]

    def test_committed_trajectory_holds_a_serve_sharded_entry(self):
        spec = json.loads(
            (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
        )
        entries = [
            point
            for point in load_trajectory(DEFAULT_TRAJECTORY)
            if point.get("suite") == "pairs"
            and point.get("workload") == "serve_sharded"
        ]
        assert entries, "no serve_sharded pairs entry in BENCH_omega.json"
        entry = entries[-1]
        assert entry["schema"] == 1
        assert sorted(entry["metrics"]) == sorted(
            row["name"] for row in spec["end_to_end"]
        )
        series = trajectory_series(entries)
        assert "pairs.serve_sharded.op_rel_yardstick.ratio" in series


class TestResilienceSamples:
    """``bench_online_resilience``: a rerun of one commit adds a sample
    to that commit's entry instead of a new entry."""

    def test_reruns_merge_into_one_entry(self, tmp_path, monkeypatch):
        benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
        monkeypatch.syspath_prepend(str(benchmarks))
        spec = importlib.util.spec_from_file_location(
            "bench_resilience", benchmarks / "bench_online_resilience.py"
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        trajectory = tmp_path / "BENCH.json"
        old_shape = {"suite": "bench_online_resilience", "git_sha": "0ld0000",
                     "points": [{"arm": "chaos"}]}
        trajectory.write_text(json.dumps([{"suite": "pairs"}, "note", old_shape]))
        first = [{"arm": "chaos", "promotions": 1}]
        second = [{"arm": "chaos", "promotions": 2}]
        bench.record_sample(trajectory, "abc1234", first)
        bench.record_sample(trajectory, "abc1234", second)
        bench.record_sample(trajectory, "def5678", first)
        bench.record_sample(trajectory, "0ld0000", second)
        assert json.loads(trajectory.read_text()) == [
            {"suite": "pairs"},
            "note",
            {**old_shape, "samples": [second]},
            {"suite": "bench_online_resilience", "git_sha": "abc1234",
             "n_shards": bench.N_SHARDS, "samples": [first, second]},
            {"suite": "bench_online_resilience", "git_sha": "def5678",
             "n_shards": bench.N_SHARDS, "samples": [first]},
        ]
