"""The deterministic Python calls of one small ``serve_sharded`` replay,
pinned per caller → callee edge.

``benchmarks/serve_calls.py`` does the counting: its replays, its filter
of timed functions and its keys are imported here, not copied.  The
fixture ``serve_calls_pin.json`` beside this file is what that script
wrote for the quick workload on one shard.  A change that moves a count
re-pins it, and states in CHANGES.md which counts moved and why::

    python benchmarks/serve_calls.py --quick --shards 1 --pin tests/serve_calls_pin.json

The fixture keeps only edges whose caller is the repo's own code, keyed
so that they read the same on every Python the suite runs on.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

FIXTURE = Path(__file__).with_name("serve_calls_pin.json")
SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "serve_calls.py"

pytestmark = pytest.mark.usefixtures("no_shard_leftovers")


def _import_serve_calls():
    spec = importlib.util.spec_from_file_location("serve_calls", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pin_keys_name_no_python_or_numpy_version():
    serve_calls = _import_serve_calls()
    src = SCRIPT.parents[1] / "src" / "repro"
    run_trace = (str(src / "serve" / "server.py"), 10, "run_trace")
    lookup = (str(src / "shard" / "store.py"), 20, "lookup")
    send = (str(src / "shard" / "store.py"), 40, "_send_primary")

    def steady(stdlib: str, arange: str, inlined: bool) -> dict:
        helper = (f"{stdlib}/contextlib.py", 299, "helper")
        edges = {
            (None, run_trace): 1,
            (run_trace, helper): 1,
            (helper, (f"{stdlib}/contextlib.py", 100, "__init__")): 1,
            (run_trace, ("<string>", 2, "__init__")): 5,
            (lookup, ("~", 0, f"<built-in method {arange}>")): 3,
            (lookup, ("~", 0, "<method 'argmax' of 'numpy.ndarray' objects>")): 3,
        }
        if inlined:  # 3.12: the list comprehension runs in lookup's frame
            edges[lookup, send] = 3
        else:
            listcomp = (str(src / "shard" / "store.py"), 30, "<listcomp>")
            edges[lookup, listcomp] = 1
            edges[listcomp, send] = 3
        return edges

    py311 = serve_calls.pinned(
        steady("/usr/lib/python3.11", "numpy.arange", inlined=False)
    )
    py312 = serve_calls.pinned(
        steady("/usr/lib/python3.12", "numpy.core.multiarray.arange", inlined=True)
    )
    assert py311 == py312 == {
        "serve/server.py:run_trace -> <lib>/<string>:__init__": 5,
        "serve/server.py:run_trace -> <lib>/contextlib.py:helper": 1,
        "shard/store.py:lookup -> <built-in>:arange": 3,
        "shard/store.py:lookup -> <built-in>:ndarray.argmax": 3,
        "shard/store.py:lookup -> shard/store.py:_send_primary": 3,
    }


def _by_callee(edges: dict[str, int]) -> dict[str, int]:
    out: dict[str, int] = {}
    for edge, calls in edges.items():
        callee = edge.split(" -> ", 1)[1]
        out[callee] = out.get(callee, 0) + calls
    return out


def test_serve_replay_calls_match_the_pin(monkeypatch):
    pin = json.loads(FIXTURE.read_text(encoding="utf-8"))
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends
    serve_calls = _import_serve_calls()
    workload, runs = serve_calls.measure(
        pin["seed"], pin["quick"], pin["n_shards"]
    )
    assert workload.work_per_op == pin["requests"]
    steady, varying = serve_calls.steady_edges(runs)
    assert not varying, f"{len(varying)} edges vary between replays"
    got = serve_calls.pinned(steady)
    if got != pin["edges"]:
        before, after = _by_callee(pin["edges"]), _by_callee(got)
        moved = [
            f"  {name}: {before.get(name, 0)} -> {after.get(name, 0)}"
            for name in sorted(set(before) | set(after))
            if before.get(name, 0) != after.get(name, 0)
        ]
        pytest.fail(
            f"deterministic calls per replay {pin['calls']} ->"
            f" {sum(got.values())}; functions whose counts moved:\n"
            + "\n".join(moved or ["  (none: only the callers moved)"])
            + f"\nre-pin with: python {SCRIPT.parent.name}/{SCRIPT.name}"
            " --quick --shards 1 --pin tests/serve_calls_pin.json"
        )
