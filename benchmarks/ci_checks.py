"""The assertions CI makes, as named checks that run the same locally.

    python benchmarks/ci_checks.py <check> <files…>

A ``*.jsonl`` file is telemetry, read through the product's one loader
(``obs.live.load_records``) and its metrics through
``MetricsRegistry.from_records``; any other file is JSON.  Each check is
a function of the parsed inputs and fails by ``AssertionError``; an
unknown name exits 2 and lists the checks.  By the CI job that runs them:

- layered-quick: ``layered-pins <workload>.json…`` (``layered/run.py
  --workload W --quick --trace 1``, one file per pinned workload).
- telemetry-smoke: ``partition-spans t.jsonl`` (an embed's telemetry).
- chaos-smoke: ``recovered-stages chaos.jsonl`` and
  ``resumed-equals-fresh fresh.jsonl chaos.jsonl``.
- perf-gate: ``gate-stages perf_gate_baseline.json
  perf_gate.telemetry.jsonl`` and ``wall-band`` (it runs the suite).
- serve-chaos: ``breaker-tripped``, ``request-records`` and
  ``blame-sums-to-latency serve.jsonl``, and ``blame-equals-attribution
  serve.jsonl attribution.json`` (``repro attribute --format json``).
- shard-chaos: ``restart-landed shard_recovery.telemetry.jsonl``.
- forensics: ``blame-fractions serve_tail.<arm>.live.jsonl…``.
- resilience-chaos: ``resilience-arms`` and ``repair-charges
  online_resilience.telemetry.jsonl``.
- shard-chaos and resilience-chaos: ``leaves-nothing -- <command…>``.
"""

from __future__ import annotations

import contextlib
import glob
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.obs import forensics  # noqa: E402
from repro.obs.live import load_records  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402

#: Exact values under --quick.  Counts, not times: a slide back to one
#: kernel call per partition or to planning on every call fails here
#: exactly, where a wall clock on a shared runner could not tell.  The
#: simulated seconds of an op are an exact float under --quick: a
#: replayed multiply that charges one bit differently fails here.
PINS = {
    # What the commit before the per-(pattern, d) replay (0c1aa74) prints.
    "spmm_narrow": {
        "formats.kernel_calls": 1,
        "core.eata.calls": 0,
        "core.wofp.calls": 0,
        "core.spmm.calls": 1,
        "memsim.sim_op_s": 5.777968545986087e-05,
    },
    # Per embed: one format build (the edge list straight to CSDB, no
    # CSR; F^T and A+I build nothing a span counts), 25 products of one
    # kernel call each, and one EaTA split + one WoFP plan per partition
    # for each of the two sparsity patterns (A's and A+I's), not for each
    # of the four operators.  The seconds are the float 0c1aa74 prints.
    "embed_tiny": {
        "formats.build_calls": 1,
        "formats.kernel_calls": 25,
        "prone.n_spmm": 25,
        "core.eata.calls": 2,
        "core.wofp.calls": 16,
        "core.spmm.calls": 25,
        "memsim.sim_op_s": 0.00200759448928529,
    },
    # The d = 128 replay and the d = 32 / 40 embed replays, as 1f286e1
    # prints them.  The timed wide product reuses the copy its warm-up
    # shared (one hit, no miss): a cache keyed wrongly fails as a count.
    "spmm_wide": {
        "formats.kernel_calls": 1,
        "memsim.sim_op_s": 0.0008073818668787374,
        "parallel.shared.cache_hits": 1,
        "parallel.shared.cache_misses": 0,
    },
    "embed_skewed": {
        "formats.kernel_calls": 25,
        "memsim.sim_op_s": 0.003634174195109004,
    },
    # Fixed rounds: lookups and request outcomes depend on the simulated
    # clock alone, so a transport that hedges, fails or re-routes one
    # lookup moves them.  The counts are what the parent of the pipe
    # transport (bc11c96, queue pairs) prints; the simulated p99, the
    # seconds and the shed count (a shard price memo keyed wrongly moves
    # them) what the commit before the memo (82dab56) prints; both at 1
    # and at 3 shards.
    "serve_sharded": {
        "shard.hedged": 0,
        "serve.failed": 0,
        "shard.lookups": 164,
        "serve.served": 166,
        "serve.deadline_exceeded": 34,
        "serve.shed": 0,
        "serve.sim_p99_ms": 2.867570136708446,
        "memsim.sim_op_s": 0.07478193379194611,
    },
}

#: ``bench.quality_auc`` to within 1e-6: a dense-algebra change moves it.
AUCS = {
    # 0ce2af2, the one-BLAS tSVD and the Cholesky QR range bases.
    "embed_tiny": 0.7721137097436473,
    # Float32 propagation operands; the float64 propagation (90d3f6c),
    # the float32 one and the Cholesky QR range bases print this float.
    "embed_skewed": 0.7622676250534879,
}


def layered_pins(results: dict[str, dict]) -> None:
    """``results``: workload -> its ``run.py`` result; every pin holds."""
    assert sorted(results) == sorted(PINS), f"workloads {sorted(results)}"
    for workload, pins in PINS.items():
        metrics = results[workload]["metrics"]
        for name, expected in pins.items():
            value = metrics[name]["value"]
            assert value == expected, (
                f"{workload} {name} = {value}, expected {expected}")
            print(f"{workload} {name} = {value:g}")
        if workload in AUCS:
            auc = metrics["bench.quality_auc"]["value"]
            assert abs(auc - AUCS[workload]) <= 1e-6, f"{workload} quality_auc = {auc}"
            print(f"{workload} bench.quality_auc = {auc:.10g}")


# Each metric read names its series: the unlabelled one through ``value``
# (``_unlabelled`` where absence must fail), or all of a name's ``total``.


def _unlabelled(metrics: MetricsRegistry, name: str) -> float:
    """The unlabelled series ``name``, which must be there."""
    assert any(not m.labels for m in metrics.series(name)), f"no {name}"
    return metrics.value(name)


def partition_spans(records: list[dict]) -> None:
    """One apportioned partition span per dispatched range under every
    ``spmm`` span, and one ``spmm`` span per call."""
    spans = [r for r in records if r.get("type") == "span"]
    partitions = [s for s in spans if s["name"] == "spmm_partition"]
    assert partitions, "no spmm_partition spans in the export"
    assert all(s["attributes"]["apportioned"] is True for s in partitions)
    calls = _unlabelled(MetricsRegistry.from_records(records), "spmm.calls")
    n_spmm = sum(1 for s in spans if s["name"] == "spmm")
    assert n_spmm == calls, (n_spmm, calls)
    print(f"{len(partitions)} partition spans under {n_spmm} spmm spans")


def recovered_stages(records: list[dict]) -> None:
    """A resumed embed recovered stages (unlabelled counters)."""
    metrics = MetricsRegistry.from_records(records)
    recovered = metrics.value("checkpoint.recovered_stages")
    assert recovered > 0, f"no stages recovered: {recovered}"
    assert metrics.value("checkpoint.recovered_sim_seconds") > 0
    print(f"recovered {recovered:.0f} stage checkpoints")


def resumed_equals_fresh(fresh: list[dict], resumed: list[dict]) -> None:
    """Resume adopts the recovered ledger: the fresh simulated seconds."""
    fresh_s, resumed_s = (
        _unlabelled(MetricsRegistry.from_records(r), "embed.sim_seconds").hex()
        for r in (fresh, resumed)
    )
    assert resumed_s == fresh_s, f"resumed {resumed_s} != fresh {fresh_s}"
    print(f"embed.sim_seconds {fresh_s}, fresh and resumed")


def gate_stages(baseline: dict, records: list[dict]) -> None:
    """The 5 % gate lets last-bit drift through; ``float.hex`` does not."""
    baseline = baseline["stages"]
    stages = next(
        r for r in records
        if r.get("type") == "event" and r.get("name") == "perf_gate_stages"
    )
    drift = {
        name: (float(value).hex(), float(stages.get(name, "nan")).hex())
        for name, value in baseline.items()
        if float(value).hex() != float(stages.get(name, "nan")).hex()
    }
    print(f"{len(baseline) - len(drift)}/{len(baseline)} stages bit-equal")
    assert not drift, f"stages off the baseline (baseline, run): {drift}"


WALL_THRESHOLD = 0.25


def wall_band(suite=None, timer=time.perf_counter) -> None:
    """Writing a telemetry file is free at the granularity CI measures:
    the median wall of ``suite`` (the perf gate's) with a file sits
    within 25 % of the median without one."""
    if suite is None:
        from repro.obs.observatory.perfgate import run_suite as suite

    def median_wall(write):
        walls = []
        for i in range(3):
            path = f"overhead.{i}.jsonl" if write else None
            t0 = timer()
            suite(telemetry_path=path)
            walls.append(timer() - t0)
        return statistics.median(walls)

    bare = median_wall(write=False)
    written = median_wall(write=True)
    ratio = (written - bare) / bare
    print(f"bare={bare:.3f}s written={written:.3f}s"
          f" overhead={ratio * 100:+.1f}% band=±{WALL_THRESHOLD * 100:.0f}%")
    assert ratio <= WALL_THRESHOLD, (
        f"telemetry-file overhead {ratio:.2%} beyond noise band")


def breaker_tripped(records: list[dict]) -> None:
    """Stalls beyond any budget trip the breaker; nothing goes unhandled."""
    metrics = MetricsRegistry.from_records(records)
    trips = metrics.total("serve.breaker.trips")  # only breaker=backend
    assert trips > 0, f"breaker never tripped: {trips}"
    assert _unlabelled(metrics, "serve.unhandled_exceptions") == 0
    assert metrics.value("serve.submitted") >= 500
    print(f"breaker tripped {trips:.0f}x, zero unhandled exceptions")


def request_records(records: list[dict]) -> None:
    """One ``serve_request`` per submitted request, no forensic span."""
    types = Counter(r.get("type") for r in records)
    metrics = MetricsRegistry.from_records(records)
    submitted = _unlabelled(metrics, "serve.submitted")
    assert types["serve_request"] == submitted, (types, submitted)
    assert types["forensic_span"] == 0, types
    print(f"{types['serve_request']} serve_request records"
          f" for {submitted:.0f} submitted requests")


def _blame(metrics: MetricsRegistry) -> dict[str, dict[str, float]]:
    """``serve.blame_seconds``, every (klass, category) series, nested."""
    series: dict[str, dict[str, float]] = {}
    for m in metrics.series("serve.blame_seconds"):
        series.setdefault(m.labels["klass"], {})[m.labels["category"]] = m.value
    return series


def blame_equals_attribution(records: list[dict], attribution: dict) -> None:
    """Blame counters and records come from one ledger: they agree exactly."""
    series = _blame(MetricsRegistry.from_records(records))
    attribution = attribution["attribution_s"]
    assert series and series == attribution, (series, attribution)
    print(f"{sum(map(len, series.values()))} serve.blame_seconds"
          " series equal attribute's attribution_s")


def blame_sums_to_latency(records: list[dict]) -> None:
    """Every second a request's clock advanced is charged: per class the
    blame sums to the ``serve.latency`` series' sum (one per klass)."""
    metrics = MetricsRegistry.from_records(records)
    totals = {klass: sum(by.values()) for klass, by in _blame(metrics).items()}
    latency = {m.labels["klass"]: m.sum for m in metrics.series("serve.latency")}
    assert latency and sorted(totals) == sorted(latency), (totals, latency)
    for klass, seconds in totals.items():
        assert math.isclose(seconds, latency[klass], rel_tol=1e-9), (
            klass, seconds, latency[klass])
    print(f"blame equals latency for {len(latency)} classes")


def _shard_events(records: list[dict]) -> list[dict]:
    return [r for r in records if r.get("type") == "shard_event"]


def restart_landed(records: list[dict]) -> None:
    """The supervised restart and the fault behind it are on the stream."""
    events = _shard_events(records)
    restarts = [e for e in events if e.get("event") == "restart"]
    assert restarts, f"no restart on the stream: {events}"
    assert any(e.get("event") == "fault_injected" for e in events)
    print(f"{len(events)} shard events, {len(restarts)} restart(s): {restarts[0]}")


def blame_fractions(streams: dict[str, list[dict]]) -> None:
    """``streams``: arm -> its live stream.  Each request's blame sums to
    its latency, each exemplar's blame fractions to 1."""
    for arm, records in streams.items():
        report = forensics.fold_stream(records, worst_k=32)
        assert not report.verify(), report.verify()[:3]
        checked = 0
        for tree in report.trees.values():
            fractions = forensics.blame_fractions(tree.blame)
            if not fractions:
                continue
            total = sum(fractions.values())
            assert math.isclose(total, 1.0, rel_tol=1e-9), (tree.trace_id, total)
            checked += 1
        print(f"{arm}: {report.n_requests} requests,"
              f" {checked} exemplar trees, fractions sum to 1.0")


def resilience_arms(records: list[dict]) -> None:
    """Every arm of the online-resilience bench landed, within bounds."""
    arms = {
        r.get("arm"): r for r in records
        if r.get("type") == "event" and r.get("name") == "resilience_arm"
    }
    events = _shard_events(records)
    for arm in ("staleness", "promotion", "wal", "storm", "chaos"):
        assert arm in arms, f"arm {arm!r} missing: {sorted(arms)}"
    assert arms["chaos"]["availability"] >= 0.99, arms["chaos"]
    assert arms["storm"]["stale_rows"] == 32, arms["storm"]
    assert any(
        e.get("event") == "fault_injected" for e in events
    ), "no fault on the stream"
    print(f"{len(events)} shard events, arms: {sorted(arms)}")


def repair_charges(records: list[dict]) -> None:
    """A repair's recovery_s is what the repair returned: a promotion the
    hedge penalty exactly, a WAL restart a PM read of its rows."""
    repairs = {"promote": [], "restart": []}
    for event in _shard_events(records):
        if event.get("event") in repairs:
            repairs[event["event"]].append(event["recovery_s"])
    assert repairs["promote"], "no promotion on the stream"
    assert all(s == 5e-4 for s in repairs["promote"]), repairs
    assert all(s > 0 for s in repairs["restart"]), repairs
    print(f"{len(repairs['promote'])} promotions, {len(repairs['restart'])} restarts")


SEGMENTS = "/dev/shm/shard-*"


def _session(sid: int) -> list[int]:
    """Pids of the live (not zombie) processes in session ``sid``."""
    ps = subprocess.run(["ps", "-o", "pid=,stat=", "-s", str(sid)],
                        capture_output=True, text=True)
    return [int(pid) for pid, stat in map(str.split, ps.stdout.splitlines())
            if not stat.startswith("Z")]


def leaves_nothing(command: list[str], wait_s: float = 10.0) -> int:
    """Run ``command`` in a new session; nothing it made may outlive it.

    Within ``wait_s`` of its exit, crash or not, every ``shard-*``
    segment that appeared during the run and every live process of the
    session must be gone.  Segments there before the run are not its
    own and are not reported.  The session finds the run's processes:
    under ``timeout … env python`` the wrapped pid is not the
    coordinator's.  Returns the command's exit status.
    """
    before = set(glob.glob(SEGMENTS))
    run = subprocess.Popen(command, start_new_session=True)
    code = run.wait()
    deadline = time.monotonic() + wait_s
    while True:
        segments = sorted(set(glob.glob(SEGMENTS)) - before)
        alive = _session(run.pid)
        if not (segments or alive) or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    for pid in alive:  # the check itself leaves nothing behind
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    for path in segments:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
    assert not alive, f"shard processes outlived the run: {alive}"
    assert not segments, f"shard segments outlived the run: {segments}"
    print(f"nothing outlived the run ({code=})")
    return code


def _read(path: str):
    """A telemetry file through the product's one loader, else JSON."""
    if path.endswith(".jsonl"):
        return load_records(path)
    with open(path) as fh:
        return json.load(fh)


CHECKS = {check.__name__.replace("_", "-"): check for check in (
    layered_pins, partition_spans, recovered_stages, resumed_equals_fresh,
    gate_stages, wall_band, breaker_tripped, request_records,
    blame_equals_attribution, blame_sums_to_latency, restart_landed,
    blame_fractions, resilience_arms, repair_charges, leaves_nothing,
)}

#: How a check's arguments become its inputs; by default each is a file.
_INPUTS = {
    "layered-pins": lambda paths: [{Path(p).stem: _read(p) for p in paths}],
    # serve_tail.<arm>.live.jsonl
    "blame-fractions": lambda paths: [{p.split(".")[-3]: _read(p) for p in paths}],
    "leaves-nothing": lambda argv: [argv[1:] if argv[:1] == ["--"] else argv],
}


def main(argv: list[str]) -> int:
    if not __debug__:  # -O strips the asserts every check makes
        sys.exit("ci_checks.py: run it without -O")
    if not argv or argv[0] not in CHECKS:
        print("usage: ci_checks.py <check> <files…>; checks: " + ", ".join(CHECKS),
              file=sys.stderr)
        return 2
    name, *args = argv
    inputs = _INPUTS.get(name, lambda paths: [_read(p) for p in paths])
    return CHECKS[name](*inputs(args)) or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
