"""``benchmarks/ci_checks.py``: every CI check passes on a tiny input and
fails on each named mutation of it, through the same command line CI
calls."""

import dataclasses
import importlib.util
import itertools
import json
import math
import os
import re
import sys
import time
from pathlib import Path

import pytest

from repro.obs.metrics import MetricsRegistry


def _import_checks():
    """The ``benchmarks/ci_checks.py`` script, imported as a module."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "ci_checks.py"
    spec = importlib.util.spec_from_file_location("ci_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ci = _import_checks()


def up(x):
    """``x`` moved by one ulp."""
    return math.nextafter(x, math.inf)


def _metrics(*counters, latency=()):
    """Metric records through the registry's own writer.

    ``counters``: ``(name, value, labels)``; ``latency``: ``(klass, s)``
    observations of the ``serve.latency`` histogram.
    """
    registry = MetricsRegistry()
    for name, value, labels in counters:
        registry.counter(name, **labels).inc(value)
    for klass, seconds in latency:
        registry.histogram("serve.latency", klass=klass).observe(seconds)
    return registry.to_records()


def _set(records, name, value, **labels):
    """The first ``name`` series carrying ``labels`` now reads ``value``."""
    record = next(
        r for r in records
        if r.get("name") == name and r.get("labels", {}) == labels
    )
    record["value"] = value(record["value"]) if callable(value) else value


def _drop(records, **fields):
    """Remove the first record carrying ``fields``."""
    records.remove(next(
        r for r in records if all(r.get(k) == v for k, v in fields.items())
    ))


_BLAME = {"batch": {"kernel": 0.004, "queue": 0.0005},
          "interactive": {"kernel": 0.002}}


def _blame_records():
    return _metrics(*(
        ("serve.blame_seconds", s, {"klass": k, "category": c})
        for k, blame in _BLAME.items() for c, s in blame.items()
    ), latency=[(k, sum(b.values())) for k, b in _BLAME.items()])


def _request(i, blame):
    return {
        "type": "serve_request", "trace_id": f"req-{i}",
        "request_id": f"r{i}", "klass": "interactive", "status": "served",
        "fidelity": None, "arrival_s": 0.01 * i, "deadline_s": 1.0,
        "n_nodes": 4, "stale_rows": 0, "blame": blame, "lookup_seqs": [],
        "partial": False, "latency_s": sum(blame.values()), "nodes": [],
    }


def _arm(arm, **fields):
    return {"type": "event", "name": "resilience_arm", "arm": arm, **fields}


def _shard_event(event, **fields):
    return {"type": "shard_event", "event": event, **fields}


def _inputs():
    """check -> (its files by name, in argument order; named mutations)."""
    spans = [
        {"type": "span", "span_id": i, "name": name,
         "attributes": {"apportioned": True} if i > 1 else {}}
        for i, name in enumerate(["spmm"] * 2 + ["spmm_partition"] * 4)
    ]
    sim_s = 0.00222848661971833
    requests = [_request(i, {"kernel": 0.002, "queue": 0.001 * i})
                for i in range(1, 4)]
    return {
        "layered-pins": (
            {f"{workload}.json": {"metrics": {
                name: {"value": value}
                for name, value in [*pins.items(), *(
                    [("bench.quality_auc", ci.AUCS[workload])]
                    if workload in ci.AUCS else []
                )]
            }} for workload, pins in ci.PINS.items()},
            {
                "a workload missing": lambda f: f.pop("embed_skewed.json"),
                "a quality_auc off by 2e-6": lambda f: f["embed_tiny.json"][
                    "metrics"]["bench.quality_auc"].update(value=0.7721157),
                **{
                    f"{workload} {name} off by 1 ulp": (
                        lambda f, w=workload, n=name: f[f"{w}.json"][
                            "metrics"][n].update(value=up(ci.PINS[w][n]))
                    )
                    for workload, pins in ci.PINS.items() for name in pins
                },
            },
        ),
        "partition-spans": (
            {"t.jsonl": spans + _metrics(("spmm.calls", 2, {}))},
            {
                "one spmm span dropped":
                    lambda f: _drop(f["t.jsonl"], name="spmm"),
                "a partition span not apportioned": lambda f: f["t.jsonl"][
                    2]["attributes"].update(apportioned=False),
                "spmm.calls only labelled": lambda f: f["t.jsonl"][-1].update(
                    labels={"op": "x"}),
            },
        ),
        "same-metrics": (
            {name: _metrics(("spmm.calls", 25, {}),
                            ("embed.sim_seconds", sim_s, {}))
             for name in ("t.jsonl", "t2.jsonl")},
            {
                "a changed value": lambda f: _set(
                    f["t2.jsonl"], "embed.sim_seconds", up),
                "a missing series": lambda f: _drop(
                    f["t2.jsonl"], name="spmm.calls"),
                "an extra spmm.kernel_wall_seconds series": lambda f: f[
                    "t2.jsonl"].extend(_metrics(
                        ("spmm.kernel_wall_seconds", 0.01, {}))),
            },
        ),
        "recovered-stages": (
            {"chaos.jsonl": _metrics(
                ("checkpoint.recovered_stages", 2, {}),
                ("checkpoint.recovered_sim_seconds", 1e-3, {}),
            )},
            {
                "no stage recovered": lambda f: _set(
                    f["chaos.jsonl"], "checkpoint.recovered_stages", 0.0),
                "no recovered seconds": lambda f: _set(
                    f["chaos.jsonl"], "checkpoint.recovered_sim_seconds", 0.0),
            },
        ),
        "resumed-equals-fresh": (
            {name: _metrics(("embed.sim_seconds", sim_s, {}))
             for name in ("fresh.jsonl", "chaos.jsonl")},
            {
                "resumed seconds off by 1 ulp": lambda f: _set(
                    f["chaos.jsonl"], "embed.sim_seconds", up),
                "resumed seconds missing": lambda f: f["chaos.jsonl"].clear(),
            },
        ),
        "gate-stages": (
            {
                "baseline.json": {"stages": {"embed": 0.1, "spmm": 3e-4}},
                "gate.jsonl": [{"type": "event", "name": "perf_gate_stages",
                                "embed": 0.1, "spmm": 3e-4}],
            },
            {
                "one stage off by 1 ulp": lambda f: f["gate.jsonl"][0].update(
                    spmm=up(3e-4)),
                "one stage missing": lambda f: f["gate.jsonl"][0].pop("spmm"),
            },
        ),
        "breaker-tripped": (
            {"serve.jsonl": _metrics(
                ("serve.breaker.trips", 6, {"breaker": "backend"}),
                ("serve.unhandled_exceptions", 0, {}),
                ("serve.submitted", 506, {}),
            )},
            {
                "a labelled serve.breaker.trips of 0": lambda f: _set(
                    f["serve.jsonl"], "serve.breaker.trips", 0.0,
                    breaker="backend"),
                "an unhandled exception": lambda f: _set(
                    f["serve.jsonl"], "serve.unhandled_exceptions", 1.0),
                "unhandled exceptions unrecorded": lambda f: _drop(
                    f["serve.jsonl"], name="serve.unhandled_exceptions"),
                "499 submitted": lambda f: _set(
                    f["serve.jsonl"], "serve.submitted", 499.0),
            },
        ),
        "request-records": (
            {"serve.jsonl": _metrics(("serve.submitted", 3, {})) + requests},
            {
                "one serve_request record dropped": lambda f: _drop(
                    f["serve.jsonl"], type="serve_request"),
                "a forensic_span record": lambda f: f["serve.jsonl"].append(
                    {"type": "forensic_span"}),
            },
        ),
        "blame-equals-attribution": (
            {"serve.jsonl": _blame_records(),
             "attribution.json": {"attribution_s": _BLAME}},
            {"one blame series nudged by 1 ulp": lambda f: _set(
                f["serve.jsonl"], "serve.blame_seconds", up,
                klass="batch", category="queue")},
        ),
        "blame-sums-to-latency": (
            {"serve.jsonl": _blame_records()},
            {
                "one blame series raised by 1e-6 of itself": lambda f: _set(
                    f["serve.jsonl"], "serve.blame_seconds",
                    lambda s: s * (1 + 1e-6), klass="batch", category="kernel"),
                "a class without latency": lambda f: _drop(
                    f["serve.jsonl"], name="serve.latency",
                    labels={"klass": "batch"}),
            },
        ),
        "restart-landed": (
            {"recovery.jsonl": [_shard_event("fault_injected"),
                                _shard_event("restart", shard=1, sim_now_s=0.02),
                                _shard_event("promote", shard=0, sim_now_s=0.03)]},
            {
                "the restart dropped": lambda f: _drop(
                    f["recovery.jsonl"], event="restart"),
                "the fault dropped": lambda f: _drop(
                    f["recovery.jsonl"], event="fault_injected"),
                "the restart's clock stamp null": lambda f: f[
                    "recovery.jsonl"][1].update(sim_now_s=None),
                "the promotion's clock stamp dropped": lambda f: f[
                    "recovery.jsonl"][2].pop("sim_now_s"),
            },
        ),
        "blame-fractions": (
            {f"serve_tail.{arm}.live.jsonl": [dict(r) for r in requests]
             for arm in ("resilient", "naive")},
            {"one request's kernel blame raised 1 %": lambda f: f[
                "serve_tail.naive.live.jsonl"][1].update(
                    blame={"kernel": 0.00202, "queue": 0.002})},
        ),
        "resilience-arms": (
            {"resilience.jsonl": [
                _arm("staleness"), _arm("promotion"), _arm("wal"),
                _arm("storm", stale_rows=32), _arm("chaos", availability=0.99),
                _shard_event("fault_injected"),
            ]},
            {
                **{f"the {arm} arm removed": (
                    lambda f, a=arm: _drop(f["resilience.jsonl"], arm=a)
                ) for arm in ("staleness", "promotion", "wal", "storm", "chaos")},
                "availability 0.98": lambda f: f["resilience.jsonl"][4].update(
                    availability=0.98),
                "31 stale rows": lambda f: f["resilience.jsonl"][3].update(
                    stale_rows=31),
                "no fault on the stream": lambda f: _drop(
                    f["resilience.jsonl"], event="fault_injected"),
            },
        ),
        "repair-charges": (
            {"resilience.jsonl": [
                _shard_event("promote", recovery_s=5e-4),
                _shard_event("promote", recovery_s=5e-4),
                _shard_event("restart", recovery_s=7.7e-7),
            ]},
            {
                "a promotion off by 1 ulp": lambda f: f["resilience.jsonl"][
                    1].update(recovery_s=up(5e-4)),
                "a restart charged nothing": lambda f: f["resilience.jsonl"][
                    2].update(recovery_s=0.0),
                "no promotion": lambda f: [
                    _drop(f["resilience.jsonl"], event="promote")
                    for _ in range(2)
                ],
            },
        ),
    }


def _write(tmp_path, files):
    """``files`` written out; their paths, in order."""
    paths = []
    for name, content in files.items():
        path = tmp_path / name
        if name.endswith(".jsonl"):
            path.write_text("".join(json.dumps(r) + "\n" for r in content))
        else:
            path.write_text(json.dumps(content))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize(("check", "mutation"), [
    (check, mutation)
    for check, (_, mutations) in _inputs().items()
    for mutation in [None, *mutations]
])
def test_each_check_passes_and_bites(tmp_path, capsys, check, mutation):
    # ``ci_checks.py <check> <files…>``, on the input or a mutant of it.
    files, mutations = _inputs()[check]
    if mutation is None:
        assert ci.main([check, *_write(tmp_path, files)]) == 0
        assert capsys.readouterr().out
        return
    mutations[mutation](files)
    with pytest.raises(AssertionError):
        ci.main([check, *_write(tmp_path, files)])


def test_every_check_without_a_file_input_is_tested_below():
    assert set(_inputs()) == set(ci.CHECKS) - {
        "wall-band", "leaves-nothing", "knobs-have-callers",
    }


@dataclasses.dataclass(frozen=True)
class _Inner:
    never_set_anywhere: int = 0


@dataclasses.dataclass(frozen=True)
class _Mutant:
    queue_limit: int = 64  # set by the CLI
    parallel: _Inner = _Inner()  # set by the CLI, so checked through


def test_knobs_have_callers_names_a_field_no_caller_sets(capsys):
    assert ci.main(["knobs-have-callers"]) == 0
    assert "has a caller" in capsys.readouterr().out
    with pytest.raises(AssertionError) as unset:
        ci.knobs_have_callers([_Mutant])
    assert str(unset.value).endswith(
        "fields no caller sets: _Inner.never_set_anywhere"
    )


def _walls(*walls):
    """A timer whose successive (start, stop) pairs are ``walls`` apart."""
    ticks = itertools.chain.from_iterable((0.0, w) for w in walls)
    return lambda: next(ticks)


def test_wall_band_takes_its_timer_and_suite():
    paths = []
    suite = lambda telemetry_path: paths.append(telemetry_path)  # noqa: E731
    # Bare, written, bare, ...: medians 1.0 and 1.25, on the band's edge.
    ci.wall_band(suite, _walls(1.0, 1.25, 9.0, 0.1, 0.5, 30.0))
    assert paths == [
        path for i in range(3) for path in (None, f"overhead.{i}.jsonl")
    ]
    with pytest.raises(AssertionError, match="beyond noise band"):
        ci.wall_band(suite, _walls(*[1.0, up(1.25)] * 3))


def _warming_suite(overhead):
    """A suite and its clock: a run takes 1 s, ``overhead`` more with a
    file, and the first two runs 1 s more (a warm-up), whatever they
    are."""
    clock, runs = [0.0], []

    def suite(telemetry_path):
        runs.append(telemetry_path)
        clock[0] += 1.0 + overhead * (telemetry_path is not None)
        clock[0] += 1.0 * (len(runs) <= 2)

    return suite, lambda: clock[0]


def test_wall_band_charges_a_warm_up_to_neither_side(capsys):
    # Three bare runs first read this suite as -50 %, and a real +30 %
    # cost as -35 %: the warm-up hid it.
    ci.wall_band(*_warming_suite(0.0))
    assert "overhead=+0.0%" in capsys.readouterr().out
    with pytest.raises(AssertionError, match="beyond noise band"):
        ci.wall_band(*_warming_suite(0.3))


@pytest.fixture
def shm():
    """A ``shard-*`` name made before the run, and cleanup of the rest."""
    made = []
    before = Path(f"/dev/shm/shard-citest-{os.getpid()}-before")
    before.touch()
    yield before, made
    for path in [before, *made]:
        path.unlink(missing_ok=True)


def test_leaves_nothing_ignores_what_was_there_before(shm):
    assert ci.leaves_nothing([sys.executable, "-c", "pass"], 0.5) == 0
    # A crash path: the status passes through the command line.
    assert ci.main(["leaves-nothing", "--", sys.executable, "-c",
                    "import os; os._exit(3)"]) == 3


def test_leaves_nothing_fails_on_a_segment_made_in_the_run(shm):
    _, made = shm
    made.append(Path(f"/dev/shm/shard-citest-{os.getpid()}-made"))
    command = [sys.executable, "-c", f"open({str(made[0])!r}, 'w')"]
    with pytest.raises(AssertionError, match="segments outlived"):
        ci.leaves_nothing(command, 0.3)
    assert not made[0].exists()  # what it reports, it removes


def _running(pid):
    """Is ``pid`` a live process (not gone, not a zombie)?"""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_leaves_nothing_fails_on_a_child_left_in_its_session(shm):
    with pytest.raises(AssertionError, match="processes outlived") as failed:
        ci.leaves_nothing(["sh", "-c", "sleep 30 &"], 0.3)
    (pid,) = map(int, re.findall(r"\d+", str(failed.value)))
    # What it reports, it kills.
    deadline = time.monotonic() + 5.0
    while _running(pid):
        assert time.monotonic() < deadline, f"{pid} still running"
        time.sleep(0.01)


def test_an_unknown_check_exits_nonzero_and_lists_the_checks(capsys):
    assert ci.main(["no-such-check"]) != 0
    err = capsys.readouterr().err
    assert all(name in err for name in ci.CHECKS)
