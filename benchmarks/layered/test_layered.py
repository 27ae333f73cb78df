"""Smoke test of the layered benchmark (``run.py --all --quick``, twice).

Run with ``python -m pytest benchmarks/layered -q``; tier-1 does not
collect this directory.  Quick-mode numbers are not comparable with real
runs -- the test checks names, units, span arithmetic and determinism.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans as sp  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECTIONS = {0: "end_to_end", 1: "per_layer"}

#: Metrics the host's speed cannot move: exact across repeats of a seed.
DETERMINISTIC = {
    "op_sim_ms", "memsim.sim_op_s", "memsim.sim_spmm_s",
    "memsim.sim_serial_s", "core.wofp.hit_fraction", "serve.goodput", "serve.sim_p99_ms",
    "formats.kernel_computed_bytes", "bench.quality_auc",
}


def quick_run(path: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--all", "--quick",
         "--quiet", "--out", str(path)],
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    runs = json.loads(path.read_text())["runs"]
    return {(r["workload"], r["trace"]): r["result"] for r in runs}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("layered")
    return quick_run(tmp / "a.json"), quick_run(tmp / "b.json")


def test_names_and_units_match_benchmark_json(reports):
    first, _ = reports
    assert sorted(first) == sorted((w, t) for w in WORKLOADS for t in (0, 1))
    for (workload, trace), result in first.items():
        expected = {m["name"]: m["unit"] for m in SPEC[SECTIONS[trace]]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected, (workload, trace)
        assert all(unit for unit in got.values())


def test_every_check_passes(reports):
    for report in reports:
        for key, result in report.items():
            assert result["correct"] and result["failed"] == 0, key
            assert result["attempted"] >= 1


def test_end_to_end_metrics_are_never_zero(reports):
    first, _ = reports
    for workload in WORKLOADS:
        for name, entry in first[workload, 0]["metrics"].items():
            assert entry["value"] > 0, (workload, name)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_sum_to_their_root(reports, workload):
    spans = sp.load(HERE / "out" / f"{workload}.spans.jsonl")
    durations = sp.durations(spans)
    selfs = sp.self_times(spans)
    roots = sp.root_of(spans)
    assert any(s[sp.NAME] == "bench.op" for s in spans)
    sums = dict.fromkeys(set(roots), 0.0)
    for index, self_s in enumerate(selfs):
        # Children never cover more than their parent.
        assert self_s >= -1e-9, spans[index]
        sums[roots[index]] += self_s
    for root, total in sums.items():
        assert total == pytest.approx(durations[root], rel=1e-9, abs=1e-9)
    metrics = reports[0][workload, 1]["metrics"]
    assert metrics["bench.ledger_sum_s"]["value"] == pytest.approx(
        metrics["bench.root_s"]["value"], rel=1e-9
    )


def test_deterministic_metrics_repeat_exactly(reports):
    first, second = reports
    for key, result in first.items():
        for name, entry in result["metrics"].items():
            if entry["unit"] == "count" or name in DETERMINISTIC:
                assert entry["value"] == second[key]["metrics"][name]["value"], (
                    key, name
                )


def test_workloads_stress_different_layers(reports):
    first, _ = reports
    tiny = first["embed_tiny", 1]["metrics"]
    serve = first["serve_sharded", 1]["metrics"]
    wide = first["spmm_wide", 1]["metrics"]
    assert tiny["formats.kernel_s"]["value"] > 0
    assert tiny["shard.lookups"]["value"] == 0
    assert serve["formats.kernel_s"]["value"] == 0
    assert serve["shard.lookups"]["value"] > 0
    assert wide["prone.n_spmm"]["value"] == 0
    assert wide["parallel.shared.call_ms"]["value"] > 0
