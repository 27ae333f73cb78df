#!/usr/bin/env python3
"""Layered wall-clock benchmark runner (see README.md beside this file).

One workload, one pass::

    python3 benchmarks/layered/run.py --workload spmm_wide --seed 1 \\
        --seconds 15 --trace 0        # end-to-end metrics, tracing off
    python3 benchmarks/layered/run.py --workload spmm_wide --trace 1
                                      # per-layer metrics + spans file

Every workload, both passes, each in its own process::

    python3 benchmarks/layered/run.py --all [--repeat 5] [--out a.json]
    python3 benchmarks/layered/run.py --all --quick    # < 30 s smoke run
    python3 benchmarks/layered/run.py --compare a.json b.json

The last line of a single-workload run is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when a check failed.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the only extra threads/processes are the ones a
# workload names.  Must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import multiprocessing
import resource
import statistics
import subprocess
import time
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SHM = Path("/dev/shm")


def load_spec() -> dict:
    """BENCHMARK.json: the one list of workload and metric names/units."""
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        sys.exit(f"run.py: {ROOT} does not hold src/repro and BENCHMARK.json")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    return json.loads(spec_path.read_text(encoding="utf-8"))


# -- one workload, one pass ----------------------------------------------


def run_rounds(workload, seconds: float, rec=None) -> int:
    """Closed loop: rounds until the clock and the sample floor are met.

    In the traced pass odd rounds are traced and even ones are not, so
    the tracing overhead is a paired difference.  Returns the runner's
    max RSS (KiB) when the sample floor was reached: a fixed amount of
    work, so a faster machine that fits more rounds into ``seconds``
    (and more WAL records into memory) does not read as using more.
    """
    def one(index):
        traced = rec is not None and index % 2 == 1
        workload.round(index, rec if traced else None)

    floor = workload.floor(rec is not None)
    if workload.quick:
        seconds = 0.0
    end = time.perf_counter() + seconds
    index = rss_kib = 0
    while time.perf_counter() < end or index < floor:
        one(index)
        index += 1
        if index == floor:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss_kib


def stop_resource_tracker() -> None:
    """Stop and wait for Python's shared-memory resource tracker.

    The program's first ``SharedMemory`` starts this helper process; it
    would otherwise live until the interpreter exits.
    """
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def children() -> list[int]:
    """PIDs whose parent is this process (zombies included)."""
    multiprocessing.active_children()  # reaps finished mp children
    me = str(os.getpid())
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if stat.rsplit(")", 1)[1].split()[1] == me:
            found.append(int(entry.name))
    return found


def shm_segments() -> set[str]:
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


def describe(name: str, values: list[float], unit: str = "ms",
             scale: float = 1e3) -> str:
    """p25 / p50 / highest well-sampled tail percentile / count."""
    from workloads import quantile, tail

    hi = tail(values)
    hi_text = f" {hi[0]}={hi[1] * scale:.4g}" if hi else ""
    return (
        f"  {name:<10} p25={quantile(values, 25) * scale:.4g}"
        f" p50={quantile(values, 50) * scale:.4g}{hi_text} {unit}"
        f"  n={len(values)}"
    )


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 trace: bool, quick: bool) -> dict:
    import hostprobe
    import layers
    import spans
    from repro.parallel import (
        shutdown_shared_executors,
        shutdown_threads_executors,
    )
    from workloads import WORKLOADS

    shm_before = shm_segments()
    workload = WORKLOADS[name](seed, quick)
    rec = spans.Recorder(name) if trace else None
    setup_times: list[float] = []
    arm_values: dict[str, float] = {}
    probe = None
    try:
        if rec is None:
            for rep in range(1 if quick else workload.setup_reps):
                if rep:
                    workload.teardown()
                start = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - start)
        else:
            # The probe's arrays are the benchmark's own memory, so it
            # runs in the traced pass only, where peak RSS is not read.
            probe = hostprobe.probe(seed)
            rec.install()
            with rec.recording(-1), rec.span("bench.setup"):
                workload.setup()
        workload.once()
        rss_kib = run_rounds(workload, seconds, rec)
        if rec is not None:
            arm_values = workload.arms(rec)
    finally:
        workload.teardown()
        shutdown_shared_executors()
        shutdown_threads_executors()
        if rec is not None:
            rec.remove()
    workload.finish_checks()
    # ... plus the largest child, known once the children are waited for.
    rss_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    leaked = sorted(shm_segments() - shm_before)
    workload.check(not leaked, f"leaked /dev/shm segments: {leaked}")
    stop_resource_tracker()
    alive = children()
    workload.check(not alive, f"child processes still alive: {alive}")

    samples = workload.samples
    print(f"# {name} seed={seed} trace={int(trace)} {workload.info}")
    if rec is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss_kib / 1024.0,
            "op_rel_yardstick": statistics.median(samples["op_rel"]),
            "side_rel_yardstick": statistics.median(samples["side_rel"]),
            "op_sim_ms": workload.sim_ms(),
        }
        section = "end_to_end"
        for kind in ("op", "side", "yard"):
            print(describe(kind, samples[kind]))
        for kind in ("op_rel", "side_rel"):
            print(describe(kind, samples[kind], unit="x", scale=1.0))
        print(f"  setup_s samples: {[round(t, 3) for t in setup_times]}")
    else:
        rec.write(HERE / "out" / f"{name}.spans.jsonl")
        section = "per_layer"
        metrics = dict.fromkeys((m["name"] for m in spec[section]), 0.0)
        metrics.update(
            layers.layer_metrics(
                rec.spans, workload, probe, samples["op"],
                workload.traced["op"],
            )
        )
        metrics.update(workload.layer_extras())
        metrics.update(arm_values)
        metrics["memsim.sim_wall_ratio"] = metrics["memsim.sim_op_s"] / (
            statistics.median(samples["op"])
        )
        for kind in ("op", "side", "yard"):
            metrics[f"bench.{kind}_wall_ms"] = 1e3 * statistics.median(
                samples[kind]
            )
        print(f"  host probe: {probe}")
    unit_of = {m["name"]: m["unit"] for m in spec[section]}
    workload.check(
        set(metrics) == set(unit_of),
        "metric names differ from BENCHMARK.json:"
        f" {sorted(set(metrics) ^ set(unit_of))}",
    )
    for message in workload.failures:
        print(f"  CHECK FAILED: {message}")
    for key in sorted(metrics):
        print(f"  {key} = {metrics[key]:.6g} {unit_of.get(key, '?')}")
    failed = workload.attempted if workload.failures else 0
    return {
        "correct": not workload.failures,
        "attempted": max(workload.attempted, 1),
        "failed": failed,
        "metrics": {
            key: {"value": float(value), "unit": unit_of.get(key, "?")}
            for key, value in metrics.items()
        },
    }


# -- every workload, in child processes ------------------------------------


def run_all(args, names: list[str]) -> int:
    """Both passes of every workload, ``--repeat`` interleaved rounds.

    Every round runs the same seed, so the spread ``--compare`` reports
    is run-to-run noise and not the difference between inputs.
    """
    runs = []
    status = 0
    for repeat in range(args.repeat):
        for name in names:
            for trace in (0, 1):
                if trace and repeat:
                    continue  # one traced pass per workload is enough
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ] + (["--quick"] if args.quick else [])
                done = subprocess.run(
                    command, capture_output=True, text=True, check=False
                )
                lines = done.stdout.strip().splitlines()
                if not args.quiet:
                    print("\n".join(lines[:-1]), flush=True)
                if done.returncode != 0:
                    status = 1
                    print(done.stderr, file=sys.stderr)
                if lines and lines[-1].startswith("{"):
                    runs.append(
                        {"workload": name, "trace": trace,
                         "seed": args.seed,
                         "result": json.loads(lines[-1])}
                    )
    report = {"seconds": args.seconds, "quick": args.quick, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    else:
        print(json.dumps(report))
    return status


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and sample counts; numbers are"
                             " not comparable")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --all: rounds of the same seed")
    parser.add_argument("--out", help="with --all: write the report here")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()

    if args.compare:
        import compare

        return compare.main(*args.compare, spec)
    if args.all:
        return run_all(args, names)
    if not args.workload:
        parser.error("one of --workload, --all or --compare is required")
    result = run_workload(
        spec, args.workload, args.seed, args.seconds, bool(args.trace),
        args.quick,
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
