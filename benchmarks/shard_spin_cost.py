#!/usr/bin/env python3
"""What shard-pipe spinning costs in CPU: the ``serve_sharded`` op, both ways.

    python benchmarks/shard_spin_cost.py [--ops 20] [--seed 31] [--window S]
                                         [--shards N] [--replicas R]

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
that blocks and is woken makes one.  Prints the medians per arm.
Linux only (``/proc``).
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
    args = parser.parse_args()
    arms = {
        name: build(args.seed, window, args.shards, args.replicas)
        for name, window in (("spin", args.window), ("block", 0.0))
    }
    rows: dict[str, list[tuple[float, ...]]] = {name: [] for name in arms}
    try:
        for index in range(args.ops):
            order = list(arms) if index % 2 == 0 else list(arms)[::-1]
            for name in order:
                rows[name].append(one_op(arms[name], 1 + index))
    finally:
        for workload in arms.values():
            workload.teardown()
    print(f"serve_sharded op, seed {args.seed}, window {args.window} s,"
          f" {args.shards} shard(s) x {1 + args.replicas} workers,"
          f" {len(os.sched_getaffinity(0))} CPU(s), {args.ops} ops per arm"
          " (medians per op; times in ms)")
    for name, samples in rows.items():
        wall, cpu, workers, host_cs, worker_cs = (
            statistics.median(column) for column in zip(*samples)
        )
        print(f"  {name:5s} wall {wall * 1e3:6.1f}  host CPU {cpu * 1e3:6.1f}"
              f"  worker CPU {workers * 1e3:6.1f}"
              f"  switches: host {host_cs:5.0f}  workers {worker_cs:5.0f}")


if __name__ == "__main__":
    main()
