#!/usr/bin/env python3
"""Python calls of one ``serve_sharded`` replay, as a count.

    python benchmarks/serve_calls.py [--seed 3] [--top 20]

Builds the layered benchmark's ``serve_sharded`` workload (its graph,
store and policy for ``--seed``) and replays its warm-up trace
(``_trace(0)``: 1 000 requests) three times, each under its own
``cProfile``.  A wall-clock wait makes some calls depend on timing (a
spin loop's ``time.monotonic``, a parked wait's ``poll``, a doorbell
and the frames it reads), so counts are taken per caller → callee edge
and two kinds are left out: every call to or made by the transport's
waits (:data:`WAITS`) or inside ``multiprocessing.connection``, however
steady it looks (one doorbell per replay would look steady), and every
other edge whose count differs between the three replays.  Prints the
deterministic call count of one replay (the other edges' sum), the
varying edges, and the ``--top`` functions by deterministic count.
Standard library only, beside the repo's own code.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import cProfile
import pstats
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE / "layered"), str(HERE.parent / "src")]

import workloads  # noqa: E402

REPLAYS = 3

#: The host's waits in ``repro/shard/transport.py``: what they call
#: depends on when the worker replies.
WAITS = {"_await_reply", "_ring", "_read_frame", "_ms"}


def _timed(func: tuple[str, int, str] | None) -> bool:
    """Whether ``func`` is one of the waits (or the pipe under them)."""
    if func is None:
        return False
    path = Path(func[0])
    if path.name == "connection.py" and path.parent.name == "multiprocessing":
        return True
    return path.name == "transport.py" and func[2] in WAITS


def _label(func: tuple[str, int, str] | None) -> str:
    if func is None:  # the profiled call's caller
        return "<profiler>"
    filename, line, name = func
    if filename == "~":  # a builtin: "<built-in method ...>"
        return name
    return f"{Path(filename).name}:{line}({name})"


def replay_counts(workload: workloads.ServeWorkload) -> dict[tuple, int]:
    """Calls per ``(caller, callee)`` edge of one replay of ``_trace(0)``
    (the profiled call itself has the caller ``None``)."""
    trace = workload._trace(0)
    profile = cProfile.Profile()
    profile.runcall(workload._replay, trace)
    edges = {}
    for func, (_, calls, _, _, callers) in pstats.Stats(profile).stats.items():
        for caller, (_, n, *_rest) in callers.items():
            edges[caller, func] = n
        if not callers:
            edges[None, func] = calls
    return edges


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--top", type=int, default=20)
    args = parser.parse_args(argv)
    workload = workloads.ServeWorkload(args.seed, quick=False)
    try:
        workload.setup()
        runs = [replay_counts(workload) for _ in range(REPLAYS)]
    finally:
        workload.teardown()
    edges = {
        e for e in set().union(*runs) if not (_timed(e[0]) or _timed(e[1]))
    }
    varying = {e for e in edges if len({run.get(e, 0) for run in runs}) > 1}
    steady: dict[tuple, int] = {}
    for caller, func in edges - varying:
        steady[func] = steady.get(func, 0) + runs[0][caller, func]
    print(f"seed {args.seed}: {workload.work_per_op} requests per replay,"
          f" {REPLAYS} replays")
    print(f"deterministic calls per replay: {sum(steady.values())}")
    print(f"left out ({len(varying)} edges whose count varies):")
    for edge in sorted(varying, key=lambda e: (_label(e[1]), _label(e[0]))):
        counts = ", ".join(str(run.get(edge, 0)) for run in runs)
        print(f"  {_label(edge[0])} -> {_label(edge[1])}: {counts}")
    print(f"top {args.top} by count:")
    ranked = sorted(steady.items(), key=lambda kv: -kv[1])
    for func, calls in ranked[: args.top]:
        print(f"  {calls:8d}  {_label(func)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
