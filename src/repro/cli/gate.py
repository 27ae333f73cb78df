"""``perf-gate`` runs the pinned micro-bench suite against the committed
baseline (``benchmarks/perf_gate_baseline.json``) and prints the
verdict; ``--telemetry-out`` keeps the run's telemetry file.
"""

from __future__ import annotations

import argparse

from repro.cli import scaffold


def configure_perf_gate(parser: argparse.ArgumentParser) -> None:
    scaffold.threshold_flag(parser, "simulated stage seconds")
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="pin this run's stages as the new baseline",
    )
    parser.add_argument(
        "--faults", metavar="PLAN",
        help="run the suite under a fault plan (chaos check of the gate;"
        " never updates the baseline)",
    )
    scaffold.telemetry_flags(parser, follow=False)


def run_perf_gate(args: argparse.Namespace) -> int:
    from repro.obs.observatory import perfgate, render_gate

    # The suite opens (and closes) its own session on telemetry_path.
    report = perfgate.run_perf_gate(
        threshold=args.threshold,
        update_baseline=args.update_baseline,
        faults_path=args.faults,
        telemetry_path=args.telemetry_out,
    )
    print(render_gate(report))
    if args.telemetry_out:
        print(f"telemetry written to {args.telemetry_out}")
    return 0 if report.ok else 1
