#!/usr/bin/env python3
"""Alternating parent/change pairs of one layered-benchmark workload.

    python benchmarks/pairs.py --parent DIR --change DIR \\
        --workload embed_skewed --pairs 10 --seed-base 100

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
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced run in ``tree``; the JSON object on its last line."""
    done = subprocess.run(
        [sys.executable, "benchmarks/layered/run.py", "--workload", workload,
         "--trace", "0", "--seed", str(seed)],
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


def verdict(parent, change, better: str, bound: float) -> tuple[str, str]:
    """(summary, status) by the section-8 rule (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    summary = (f"{pm:.5g} [{p1:.5g}-{p3:.5g}] -> {cm:.5g} [{c1:.5g}-{c3:.5g}]"
               f" | {wins}/{len(parent)} wins, {ties} ties")
    gain = sign * (cm - pm)
    if wins >= 0.9 * len(parent) and gain > p3 - p1:
        return summary, "gain"
    if max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm)) > bound:
        return summary, "unresolved"
    return summary, "WORSE" if -gain / abs(pm) > bound else "ok"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text("utf-8"))
    metrics = spec["end_to_end"]
    names = [metric["name"] for metric in metrics]
    samples = {side: {name: [] for name in names} for side in trees}
    failed_runs = 0
    print("| pair | side | order | seed | " + " | ".join(names) + " | checks |")
    print("|---|---|---|---|" + "---|" * (len(names) + 1))
    for pair in range(args.pairs):
        seed = args.seed_base + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order, start=1):
            result = run_once(trees[side], args.workload, seed)
            values = [result["metrics"][name]["value"] for name in names]
            for name, value in zip(names, values):
                samples[side][name].append(value)
            failed_runs += not result["correct"]
            print(
                f"| {pair} | {side} | {position} | {seed} | "
                + " | ".join(f"{value:.5g}" for value in values)
                + f" | {'ok' if result['correct'] else 'FAILED'} |",
                flush=True,
            )
    print(f"\n{args.workload}: parent median [q1-q3] -> change median [q1-q3]")
    status = 1 if failed_runs else 0
    for metric in metrics:
        name = metric["name"]
        summary, outcome = verdict(
            samples["parent"][name], samples["change"][name],
            metric["better"], metric["bound"],
        )
        print(f"  {name} ({metric['unit']}, {metric['better']} is better,"
              f" bound {metric['bound']}): {summary} | {outcome}")
        status |= outcome == "WORSE"
    print(f"  runs with a failed check: {failed_runs} of {2 * args.pairs}")
    return status


if __name__ == "__main__":
    sys.exit(main())
