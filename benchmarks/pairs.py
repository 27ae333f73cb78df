#!/usr/bin/env python3
"""Alternating parent/change pairs of one layered-benchmark workload.

    python benchmarks/pairs.py --parent DIR --change DIR \\
        --workload embed_skewed --pairs 10 --seed-base 100 \\
        [--layers shard.lookup_p50_us,serve.self_s]

Runs ``benchmarks/layered/run.py --workload W --trace 0 --seed S+i`` as a
subprocess in each checkout (both sides of pair ``i`` on the same seed,
the side that goes first flipped every pair), prints every run, then per
end-to-end metric of the change's ``BENCHMARK.json`` the medians,
quartiles, wins/ties and a verdict: ``gain`` -- the change wins >= 9/10 of
the pairs (ties count for neither) and the medians are apart by more than
the parent's inter-quartile distance; ``ok`` -- the change's median is not
worse by more than the metric's bound; ``WORSE`` -- it is; ``unresolved``
-- either side's inter-quartile spread is wider than the bound.  Exit code
1 on a ``WORSE`` row or a run whose checks failed.

``--layers`` names per-layer rows of ``BENCHMARK.json``: each pair then
also runs ``--trace 1`` once per side (after both untraced runs, in the
same order), and the named rows get the same medians, quartiles and
wins/ties -- a report of where a saving appears, with no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One run in ``tree``; the JSON object on its last line."""
    done = subprocess.run(
        [sys.executable, "benchmarks/layered/run.py", "--workload", workload,
         "--trace", str(trace), "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"pairs.py: no result from {tree}:\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(parent, change, better: str) -> tuple[str, int]:
    """The report of one metric over the pairs, and the change's wins."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    text = (f"{pm:.5g} [{p1:.5g}-{p3:.5g}] -> {cm:.5g} [{c1:.5g}-{c3:.5g}]"
            f" | {wins}/{len(parent)} wins, {ties} ties")
    return text, wins


def verdict(parent, change, better: str, bound: float) -> tuple[str, str]:
    """(summary, status) by the section-8 rule (see the module docstring)."""
    text, wins = summary(parent, change, better)
    sign = 1.0 if better == "higher" else -1.0
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gain = sign * (cm - pm)
    if wins >= 0.9 * len(parent) and gain > p3 - p1:
        return text, "gain"
    if max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm)) > bound:
        return text, "unresolved"
    return text, "WORSE" if -gain / abs(pm) > bound else "ok"


def layer_rows(names: str, spec: dict) -> list[dict]:
    """The per-layer rows of ``spec`` named in ``names`` (comma list)."""
    known = {row["name"]: row for row in spec["per_layer"]}
    wanted = [name for name in names.split(",") if name]
    unknown = [name for name in wanted if name not in known]
    if unknown:
        sys.exit(f"pairs.py: no per-layer row named {', '.join(unknown)}")
    return [known[name] for name in wanted]


def print_header(names: list[str]) -> None:
    print("| pair | side | order | seed | " + " | ".join(names) + " | checks |")
    print("|---|---|---|---|" + "---|" * (len(names) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--layers", default="", metavar="NAME[,NAME...]",
                        help="per-layer rows to report from one traced run"
                             " per side per pair")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text("utf-8"))
    layers = layer_rows(args.layers, spec)
    passes = [(0, spec["end_to_end"])] + ([(1, layers)] if layers else [])
    samples = {
        (trace, side): {row["name"]: [] for row in rows}
        for trace, rows in passes for side in trees
    }
    traced_lines = []
    failed_runs = 0
    print_header([row["name"] for row in spec["end_to_end"]])
    for pair in range(args.pairs):
        seed = args.seed_base + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for trace, rows in passes:
            for position, side in enumerate(order, start=1):
                result = run_once(trees[side], args.workload, seed, trace)
                values = [result["metrics"][row["name"]]["value"]
                          for row in rows]
                for row, value in zip(rows, values):
                    samples[trace, side][row["name"]].append(value)
                failed_runs += not result["correct"]
                line = (f"| {pair} | {side} | {position} | {seed} | "
                        + " | ".join(f"{value:.5g}" for value in values)
                        + f" | {'ok' if result['correct'] else 'FAILED'} |")
                if trace:
                    traced_lines.append(line)
                else:
                    print(line, flush=True)
    status = 1 if failed_runs else 0
    print(f"\n{args.workload}: parent median [q1-q3] -> change median [q1-q3]")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        text, outcome = verdict(
            samples[0, "parent"][name], samples[0, "change"][name],
            metric["better"], metric["bound"],
        )
        print(f"  {name} ({metric['unit']}, {metric['better']} is better,"
              f" bound {metric['bound']}): {text} | {outcome}")
        status |= outcome == "WORSE"
    if layers:
        print("\ntraced runs (--trace 1):")
        print_header([row["name"] for row in layers])
        print("\n".join(traced_lines))
        print(f"\n{args.workload} per-layer rows (report only):")
        for row in layers:
            name = row["name"]
            text, _ = summary(
                samples[1, "parent"][name], samples[1, "change"][name],
                row["better"],
            )
            print(f"  {name} ({row['unit']}, {row['better']} is better):"
                  f" {text}")
    print(f"  runs with a failed check: {failed_runs} of"
          f" {len(passes) * 2 * args.pairs}")
    return status


if __name__ == "__main__":
    sys.exit(main())
