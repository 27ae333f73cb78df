"""``perf-gate`` runs the pinned micro-bench suite against the committed
baseline (``benchmarks/perf_gate_baseline.json``) and appends a
``BENCH_omega.json`` trajectory point.
"""

from __future__ import annotations

import argparse

from repro.cli import scaffold


def configure_perf_gate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threshold", type=float, default=0.05,
        help="relative regression threshold on simulated stage seconds",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="pin this run's stages as the new baseline",
    )
    parser.add_argument(
        "--faults", metavar="PLAN",
        help="run the suite under a fault plan (chaos check of the gate;"
        " never updates the baseline or trajectory)",
    )
    parser.add_argument(
        "--trajectory", metavar="PATH",
        help="trajectory file to append to (default: BENCH_omega.json)",
    )
    parser.add_argument(
        "--no-trajectory", action="store_true",
        help="skip appending a trajectory point",
    )
    parser.add_argument(
        "--profile-out", metavar="PATH",
        help="write the suite's collapsed-stack profile (CI artifact)",
    )
    scaffold.telemetry_flags(parser, follow=False)


def run_perf_gate(args: argparse.Namespace) -> int:
    from repro.obs.observatory import (
        build_profile,
        perfgate,
        render_gate,
        write_collapsed,
    )

    trajectory = args.trajectory or perfgate.DEFAULT_TRAJECTORY
    # The suite opens (and closes) its own session on telemetry_path.
    report = perfgate.run_perf_gate(
        threshold=args.threshold,
        update_baseline=args.update_baseline,
        faults_path=args.faults,
        trajectory_path=None if args.no_trajectory else trajectory,
        telemetry_path=args.telemetry_out,
    )
    print(render_gate(report, threshold=args.threshold))
    if args.telemetry_out:
        print(f"telemetry written to {args.telemetry_out}")
    if args.profile_out:
        spans = report.run.session.tracer.to_records()
        write_collapsed(build_profile(spans), args.profile_out)
        print(f"collapsed stacks written to {args.profile_out}")
    return 0 if report.ok else 1
