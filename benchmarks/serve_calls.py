#!/usr/bin/env python3
"""Python calls of one ``serve_sharded`` replay, as a count.

    python benchmarks/serve_calls.py [--seed 3] [--top 20]
    python benchmarks/serve_calls.py --quick --shards 1 --pin tests/serve_calls_pin.json

Builds the layered benchmark's ``serve_sharded`` workload (its graph,
store and policy for ``--seed``; ``--quick`` for its quick sizes,
``--shards`` to fix the fleet size the workload otherwise takes from
the CPU count) and replays its warm-up trace (``_trace(0)``: 1 000
requests, 200 quick) three times, each under its own ``cProfile``.  A
wall-clock wait makes some calls depend on timing (a spin loop's
``time.monotonic``, a parked wait's ``poll``, a doorbell and the frames
it reads, the supervisor's heartbeat-paced liveness sweep), so counts
are taken per caller → callee edge and two kinds are left out: every
call to or made by a timed function, however steady it looks (one
doorbell per replay would look steady), and every other edge whose
count differs between the three replays.  A function is timed when it
is one of :data:`WAITS`, is inside ``multiprocessing.connection``, or
is called by timed functions only.  Prints the deterministic call count
of one replay (the other edges' sum), the varying edges, and the
``--top`` functions by deterministic count; ``--pin`` also writes, as
the JSON fixture ``tests/test_serve_calls.py`` compares, the
deterministic edges whose caller is the repo's own code (``src/``,
``benchmarks/``), keyed by file and function name without line numbers
and in a form that reads the same on every supported Python and numpy
(see :func:`pinned`).  Standard library only, beside the repo's own
code.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import cProfile
import json
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Where the repo's own code lives; every other file is the interpreter's
#: or a library's.
REPO_CODE = (HERE.parent / "src", HERE)
sys.path[:0] = [str(HERE / "layered"), str(HERE.parent / "src")]

import workloads  # noqa: E402

REPLAYS = 3

#: The host's timed functions, by file: the waits in
#: ``repro/shard/transport.py`` (what they call depends on when the
#: worker replies) and the supervisor's liveness sweep (the serve path
#: runs it once a heartbeat interval of wall time has passed).
WAITS = {
    "transport.py": {"_await_reply", "_ring", "_read_frame", "_ms"},
    "supervisor.py": {"_sweep_liveness"},
}


def _waits(func: tuple[str, int, str] | None) -> bool:
    """Whether ``func`` is one of the waits (or the pipe under them)."""
    if func is None:
        return False
    path = Path(func[0])
    if path.name == "connection.py" and path.parent.name == "multiprocessing":
        return True
    return func[2] in WAITS.get(path.name, ())


def timed_functions(runs: list[dict[tuple, int]]) -> set:
    """The waits, then every function that only timed functions call."""
    callers: dict = {}
    for run in runs:
        for caller, func in run:
            callers.setdefault(func, set()).add(caller)
    timed = {func for func in callers if _waits(func)}
    grown = True
    while grown:
        grown = False
        for func, by in callers.items():
            if func not in timed and by <= timed:
                timed.add(func)
                grown = True
    return timed


def steady_edges(
    runs: list[dict[tuple, int]],
) -> tuple[dict[tuple, int], set]:
    """The deterministic edges with their count, and the varying ones."""
    timed = timed_functions(runs)
    edges = {
        e for e in set().union(*runs)
        if e[0] not in timed and e[1] not in timed
    }
    varying = {e for e in edges if len({run.get(e, 0) for run in runs}) > 1}
    return {e: runs[0][e] for e in edges - varying}, varying


def _label(func: tuple[str, int, str] | None) -> str:
    if func is None:  # the profiled call's caller
        return "<profiler>"
    filename, line, name = func
    if filename == "~":  # a builtin: "<built-in method ...>"
        return name
    return f"{Path(filename).name}:{line}({name})"


#: Comprehensions that Python 3.12 inlines into the enclosing function
#: (PEP 709); a generator expression keeps its own frame everywhere.
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}

_BUILTIN_FUNCTION = re.compile(r"<built-in method ([\w.]+)>")
_BUILTIN_METHOD = re.compile(r"<method '(\w+)' of '([\w.]+)' objects>")


def _in_repo(func: tuple[str, int, str] | None) -> bool:
    if func is None or func[0] == "~":
        return False
    path = Path(func[0]).resolve()
    return any(path.is_relative_to(root) for root in REPO_CODE)


def _key(func: tuple[str, int, str] | None) -> str:
    """A fixture key without the line number or anything that names a
    Python or library version: the repo's own code by directory, file
    and function (``serve/server.py:run_trace``); other code by file and
    function (``<lib>/contextlib.py:helper``, not ``python3.11/...``);
    a builtin by its type and name without the module path
    (``<built-in>:arange`` for ``numpy.arange`` or
    ``numpy.core.multiarray.arange``, ``<built-in>:ndarray.argmax``)."""
    if func is None:
        return _label(func)
    if func[0] == "~":
        name = func[2]
        if match := _BUILTIN_FUNCTION.fullmatch(name):
            return f"<built-in>:{match[1].rsplit('.', 1)[-1]}"
        if match := _BUILTIN_METHOD.fullmatch(name):
            return f"<built-in>:{match[2].rsplit('.', 1)[-1]}.{match[1]}"
        return name
    path = Path(func[0])
    if _in_repo(func):
        return f"{path.parent.name}/{path.name}:{func[2]}"
    return f"<lib>/{path.name}:{func[2]}"


def pinned(steady: dict[tuple, int]) -> dict[str, int]:
    """The fixture's form of ``steady``: ``"caller -> callee"`` keys
    (:func:`_key`; edges whose keys coincide are summed), sorted.

    Only what the repo controls is kept: edges whose caller is the
    repo's own code, so none inside the interpreter, the standard
    library or numpy.  A comprehension's calls count as its enclosing
    function's, and the call into it is dropped, since 3.12 inlines it.
    """
    callers: dict = {}
    for caller, func in steady:
        callers.setdefault(func, set()).add(caller)

    def home(func):
        """The function whose frame runs ``func``'s calls (None if no
        one steady caller)."""
        while func is not None and func[2] in COMPREHENSIONS:
            by = callers.get(func, set())
            func = next(iter(by)) if len(by) == 1 else None
        return func

    out: dict[str, int] = {}
    for (caller, func), calls in steady.items():
        caller = home(caller)
        if not _in_repo(caller) or func[2] in COMPREHENSIONS:
            continue
        key = f"{_key(caller)} -> {_key(func)}"
        out[key] = out.get(key, 0) + calls
    return dict(sorted(out.items()))


def _func(code) -> tuple[str, int, str]:
    """pstats's label of a profiler entry's code (a builtin's is a str)."""
    if isinstance(code, str):
        return "~", 0, code
    return code.co_filename, code.co_firstlineno, code.co_name


def replay_counts(workload: workloads.ServeWorkload) -> dict[tuple, int]:
    """Calls per ``(caller, callee)`` edge of one replay of ``_trace(0)``
    (the profiled call itself has the caller ``None``).

    Read from the profiler's own entries, summed per label: ``pstats``
    keeps only one of the functions that share a label (every
    dataclass's generated ``__init__`` is ``<string>:2(__init__)``), and
    which one depends on where the code objects sit in memory.
    """
    trace = workload._trace(0)
    profile = cProfile.Profile()
    profile.runcall(workload._replay, trace)
    edges: dict[tuple, int] = {}
    unmatched: dict[tuple, int] = {}
    for entry in profile.getstats():
        caller = _func(entry.code)
        unmatched[caller] = unmatched.get(caller, 0) + entry.callcount
        for sub in entry.calls or ():
            func = _func(sub.code)
            edges[caller, func] = edges.get((caller, func), 0) + sub.callcount
            unmatched[func] = unmatched.get(func, 0) - sub.callcount
    for func, calls in unmatched.items():
        if calls > 0:
            edges[None, func] = calls
    return edges


def measure(
    seed: int, quick: bool, n_shards: int
) -> tuple[workloads.ServeWorkload, list[dict[tuple, int]]]:
    """Set the workload up on ``n_shards`` shards, replay it
    :data:`REPLAYS` times, tear it down; returns it with each replay's
    edge counts."""
    default = workloads.N_SHARDS
    workloads.N_SHARDS = n_shards  # read by ServeWorkload.setup
    workload = workloads.ServeWorkload(seed, quick=quick)
    try:
        workload.setup()
        runs = [replay_counts(workload) for _ in range(REPLAYS)]
    finally:
        workload.teardown()
        workloads.N_SHARDS = default
    return workload, runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--pin", type=Path, default=None)
    args = parser.parse_args(argv)
    n_shards = workloads.N_SHARDS if args.shards is None else args.shards
    workload, runs = measure(args.seed, args.quick, n_shards)
    steady, varying = steady_edges(runs)
    total = sum(steady.values())
    if args.pin is not None:
        edges = pinned(steady)
        args.pin.write_text(json.dumps({
            "seed": args.seed,
            "quick": args.quick,
            "n_shards": n_shards,
            "requests": workload.work_per_op,
            "calls": sum(edges.values()),
            "edges": edges,
        }, indent=1) + "\n")
        print(f"pinned {len(edges)} edges, {sum(edges.values())} calls,"
              f" to {args.pin}")
    per_func: dict[tuple, int] = {}
    for (_, func), calls in steady.items():
        per_func[func] = per_func.get(func, 0) + calls
    print(f"seed {args.seed}: {workload.work_per_op} requests per replay,"
          f" {n_shards} shards, {REPLAYS} replays")
    print(f"deterministic calls per replay: {total}")
    print(f"left out ({len(varying)} edges whose count varies):")
    for edge in sorted(varying, key=lambda e: (_label(e[1]), _label(e[0]))):
        counts = ", ".join(str(run.get(edge, 0)) for run in runs)
        print(f"  {_label(edge[0])} -> {_label(edge[1])}: {counts}")
    print(f"top {args.top} by count:")
    ranked = sorted(per_func.items(), key=lambda kv: -kv[1])
    for func, calls in ranked[: args.top]:
        print(f"  {calls:8d}  {_label(func)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
