"""``run.py --compare a.json b.json``: two report files, one row per pair.

Each file is what ``run.py --all --repeat N --out FILE`` wrote.  For
every workload and end-to-end metric the table gives both medians, how
much worse B is than A as a share of A's median (negative = better),
the run-to-run spread (distance between the first and third quartile
over the median, the wider of the two files) and the metric's bound.

Verdicts: ``ok`` -- B is not worse than A by more than the bound;
``WORSE`` -- it is; ``unresolved`` -- the spread is wider than the bound,
so the pair cannot be told apart (unless every B run beats every A run,
which reads ``better``).  The exit code is 1 when any row is ``WORSE``.

A simulated-time metric is the same number on every run of one seed
whatever the host does, so here its bound is 1e-9: the two files must
hold runs of the same seed.  (Its bound in ``BENCHMARK.json`` has to
cover runs of *different* seeds, which is what the driver compares.)
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


#: End-to-end metrics the cost model computes, and their bound here.
EXACT = {"op_sim_ms"}
EXACT_BOUND = 1e-9


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values of the untraced runs, in run order."""
    values = defaultdict(list)
    for run in json.loads(Path(path).read_text(encoding="utf-8"))["runs"]:
        if run["trace"]:
            continue
        for metric, entry in run["result"]["metrics"].items():
            values[run["workload"], metric].append(entry["value"])
    return values


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (needs 2+ runs)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a, b, better: str, bound: float):
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / med_a
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    wide = max(spreads) if spreads else None
    if wide is not None and wide > bound:
        clear_win = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        status = "better" if clear_win else "unresolved"
    else:
        status = "WORSE" if worse > bound else "ok"
    return med_a, med_b, worse, wide, status


def main(path_a: str, path_b: str, spec: dict) -> int:
    a, b = load(path_a), load(path_b)
    print(f"A = {path_a}   B = {path_b}")
    print("| workload | metric | unit | A median | B median | B worse by |"
          " spread | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    status_code = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            bound = EXACT_BOUND if metric["name"] in EXACT else metric["bound"]
            med_a, med_b, worse, wide, status = verdict(
                a[key], b[key], metric["better"], bound
            )
            wide_text = "n/a" if wide is None else f"{wide:.3f}"
            print(
                f"| {workload} | {metric['name']} | {metric['unit']} |"
                f" {med_a:.5g} | {med_b:.5g} | {worse:+.3f} | {wide_text} |"
                f" {bound} | {status} |"
            )
            if status == "WORSE":
                status_code = 1
    return status_code
