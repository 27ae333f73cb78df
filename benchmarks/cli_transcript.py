#!/usr/bin/env python3
"""The same ``python -m repro`` transcript against two checkouts.

    python benchmarks/cli_transcript.py --parent DIR --change DIR

Runs a fixed list of ``repro`` command lines as subprocesses
(``COLUMNS=100``, ``PYTHONPATH=<checkout>/src``) in each checkout and
compares stdout byte for byte and the exit code line by line; for the
lines that end in ``SystemExit`` the stderr text is compared too.  The
telemetry files the read-only views render are produced once, by the
parent, and read by both sides under identical paths; commands that
write a file run in a per-side directory under the same relative name.
Prints one row per line and exits 1 if any line differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

EMBED = ["embed", "PK", "--threads", "4", "--dim", "8"]
SERVE = ["serve-sim", "PK", "--threads", "4", "--dim", "8", "--requests", "60"]

#: ``crash.json``, written into every working directory.
CRASH_PLAN = {"seed": None, "events": [{"kind": "crash", "site": "factorization"}]}

#: Run once, by the parent, in ``files/``: what the views below read.
#: ``b`` is the slower arm, so ``diff a b`` has regressions and exits 1.
PRODUCE = [
    EMBED + ["--telemetry-out", "a.jsonl"],
    EMBED + ["--mode", "pm", "--telemetry-out", "b.jsonl"],
    SERVE + ["--fault-seed", "3", "--telemetry-out", "s.jsonl"],
]

#: Run by each side in its own directory.
RUNS = [
    ["datasets"],
    ["probe"],
    EMBED,
    EMBED + ["--telemetry-out", "e.jsonl"],
    ["spmm", "PK", "--threads", "4"],
    ["compare", "PK", "--threads", "4", "--dim", "8"],
    ["perf-gate"],
    SERVE + ["--fault-seed", "3"],
    SERVE + ["--shards", "2"],
    SERVE + ["--shards", "2", "--fault-seed", "3"],
    EMBED + ["--faults", "crash.json"],
    EMBED + ["--faults", "crash.json", "--resume"],
    EMBED + ["--follow"],
]

#: Run by each side in ``files/``, over the parent's telemetry.
VIEWS = [
    ["report", "a.jsonl"],
    ["profile", "a.jsonl"],
    ["profile", "a.jsonl", "--clock", "wall", "--out", "wall.folded"],
    ["top", "s.jsonl", "--once"],
    ["why", "s.jsonl", "--worst", "3"],
    ["attribute", "s.jsonl", "--check"],
    ["attribute", "s.jsonl", "--format", "json"],
    ["diff", "a.jsonl", "a.jsonl"],
    ["diff", "a.jsonl", "b.jsonl"],
    ["trend"],
    ["why", "missing.jsonl"],
]


def repro(tree: Path, argv: list[str], cwd: Path) -> tuple[int, str, str]:
    env = dict(os.environ, COLUMNS="100", PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, check=False,
    )
    return done.returncode, done.stdout, done.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    differing = 0
    with tempfile.TemporaryDirectory(prefix="cli_transcript.") as work:
        dirs = {name: Path(work) / name for name in ("files", *trees)}
        for directory in dirs.values():
            directory.mkdir()
            (directory / "crash.json").write_text(json.dumps(CRASH_PLAN), "utf-8")
        for argv in PRODUCE:
            code, _, err = repro(trees["parent"], argv, dirs["files"])
            if code != 0:
                sys.exit(f"cli_transcript.py: {' '.join(argv)}:\n{err}")
        lines = [(argv, None) for argv in RUNS]
        lines += [(argv, dirs["files"]) for argv in VIEWS]
        for argv, cwd in lines:
            (p_code, p_out, p_err), (c_code, c_out, c_err) = (
                repro(tree, argv, cwd or dirs[side])
                for side, tree in trees.items()
            )
            same = (p_code, p_out) == (c_code, c_out)
            if "Traceback" not in p_err + c_err:
                # SystemExit messages are part of the contract; a raw
                # traceback quotes checkout paths and is not.
                same = same and p_err == c_err
            differing += not same
            print(
                f"{'same' if same else 'DIFFERENT':9} exit {p_code} -> {c_code}"
                f"  {len(p_out):6d} B  repro {' '.join(argv)}",
                flush=True,
            )
    print(f"{len(lines)} lines, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
