"""Unit tests for the benchmark harness helpers."""

import importlib.util
import json
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
