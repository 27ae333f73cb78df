#!/usr/bin/env python3
"""What shard-pipe spinning costs in CPU: the ``serve_sharded`` op, both ways.

    python benchmarks/shard_spin_cost.py [--ops 20] [--seed 31] [--window S]
                                         [--shards N] [--replicas R]
                                         [--busy N]

Builds the layered benchmark's ``serve_sharded`` workload twice in one
process, once with the store's spin window forced to ``--window``
seconds (default ``repro.shard.transport.SPIN_S``) and once forced to 0
(blocking waits only).  ``--shards`` (default: the workload's count for
this host) and ``--replicas`` (idle replicas per shard, default 0) change
the store's shape.  It replays the op (one 1 000-request
trace) on the two alternately, ``--ops`` times each.  Per op it reads the wall time, the
CPU time of the host (``time.process_time``) and of the shard workers
(utime + stime from ``/proc/<pid>/stat``), and the voluntary context
switches of each (``getrusage``; ``/proc/<pid>/status``) -- a process
that blocks and is woken makes one.  Every ``EmbeddingShardManager.lookup``
call of an op is timed too.  Prints the medians per op and the lookup
p50 / p99 per arm.

``--busy N`` runs the ops beside N CPU-bound sibling processes that the
script starts after both arms are built and stops when it is done (the
contention arm: a spinning end competes with them for a CPU).  N above
``os.cpu_count()`` is refused before anything starts.  Nothing outside
the script's own processes is touched.  Linux only (``/proc``).
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import resource
import statistics
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE / "layered"), str(HERE.parent / "src")]

import workloads  # noqa: E402
from repro.shard import store  # noqa: E402
from repro.shard.transport import SPIN_S  # noqa: E402

TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def worker_cpu_s(pids: list[int]) -> float:
    """utime + stime of ``pids``, in seconds."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as fh:
            # Fields after the ")" that closes the command name; utime
            # and stime are fields 14 and 15 of the whole line.
            fields = fh.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total * TICK_S


def worker_switches(pids: list[int]) -> int:
    """Voluntary context switches of ``pids``."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("voluntary_ctxt_switches:"):
                    total += int(line.split()[1])
    return total


def host_switches() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw


def build(
    seed: int, spin_s: float, shards: int, replicas: int
) -> workloads.ServeWorkload:
    real_window, real_policy = store.spin_window, workloads.ShardPolicy
    store.spin_window = lambda *_: spin_s
    workloads.ShardPolicy = functools.partial(
        real_policy, n_replicas=replicas
    )
    workloads.N_SHARDS = shards
    try:
        workload = workloads.ServeWorkload(seed, quick=False)
        workload.setup()
    finally:
        store.spin_window, workloads.ShardPolicy = real_window, real_policy
    return workload


def time_lookups(workload: workloads.ServeWorkload) -> list[float]:
    """Time every shard-manager lookup of ``workload`` from now on;
    returns the list the wall seconds are appended to."""
    manager = workload.backend.shards
    lookup, seconds = manager.lookup, []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return lookup(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - start)

    manager.lookup = timed
    return seconds


def start_busy(n: int) -> list[subprocess.Popen]:
    """``n`` CPU-bound sibling processes, each one busy loop."""
    return [
        subprocess.Popen([sys.executable, "-c", "while True: pass"])
        for _ in range(n)
    ]


def stop_busy(siblings: list[subprocess.Popen]) -> None:
    for sibling in siblings:
        sibling.terminate()
    for sibling in siblings:
        sibling.wait()


def one_op(workload: workloads.ServeWorkload, index: int) -> tuple[float, ...]:
    """Wall, host CPU and worker CPU seconds of one replayed trace, and
    the host's and the workers' voluntary context switches."""
    pids = [
        worker.process.pid
        for host in workload.backend.shards.hosts
        for worker in host.workers
    ]
    trace = workload._trace(index)
    server = workload._server()
    before = (
        time.perf_counter(), time.process_time(), worker_cpu_s(pids),
        host_switches(), worker_switches(pids),
    )
    report = server.run_trace(trace)
    after = (
        time.perf_counter(), time.process_time(), worker_cpu_s(pids),
        host_switches(), worker_switches(pids),
    )
    assert report.failed == 0 and report.balanced
    return tuple(b - a for a, b in zip(before, after))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ops", type=int, default=20)
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--window", type=float, default=SPIN_S)
    parser.add_argument("--shards", type=int, default=workloads.N_SHARDS)
    parser.add_argument("--replicas", type=int, default=0)
    parser.add_argument("--busy", type=int, default=0)
    args = parser.parse_args()
    if not 0 <= args.busy <= (os.cpu_count() or 1):
        parser.error(
            f"--busy must be in [0, {os.cpu_count()}] (os.cpu_count()),"
            f" got {args.busy}"
        )
    arms = {
        name: build(args.seed, window, args.shards, args.replicas)
        for name, window in (("spin", args.window), ("block", 0.0))
    }
    rows: dict[str, list[tuple[float, ...]]] = {name: [] for name in arms}
    lookups = {name: time_lookups(workload) for name, workload in arms.items()}
    siblings: list[subprocess.Popen] = []
    try:
        siblings = start_busy(args.busy)
        for index in range(args.ops):
            order = list(arms) if index % 2 == 0 else list(arms)[::-1]
            for name in order:
                rows[name].append(one_op(arms[name], 1 + index))
    finally:
        stop_busy(siblings)
        for workload in arms.values():
            workload.teardown()
    print(f"serve_sharded op, seed {args.seed}, window {args.window} s,"
          f" {args.shards} shard(s) x {1 + args.replicas} workers,"
          f" {len(os.sched_getaffinity(0))} CPU(s), {args.busy} busy"
          f" sibling(s), {args.ops} ops per arm"
          " (medians per op; times in ms, lookups in us)")
    for name, samples in rows.items():
        wall, cpu, workers, host_cs, worker_cs = (
            statistics.median(column) for column in zip(*samples)
        )
        cuts = statistics.quantiles(lookups[name], n=100)
        print(f"  {name:5s} wall {wall * 1e3:6.1f}  host CPU {cpu * 1e3:6.1f}"
              f"  worker CPU {workers * 1e3:6.1f}"
              f"  switches: host {host_cs:5.0f}  workers {worker_cs:5.0f}"
              f"  lookup p50 {cuts[49] * 1e6:6.0f}  p99 {cuts[98] * 1e6:6.0f}")


if __name__ == "__main__":
    main()
