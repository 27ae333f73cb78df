"""``perf-gate`` runs the pinned micro-bench suite against the stored
baseline (``benchmarks/baselines/``) and appends a ``BENCH_omega.json``
trajectory point; ``baselines`` inspects that store.
"""

from __future__ import annotations

import argparse

from repro.bench.harness import format_table
from repro.cli import scaffold


def _baseline_dir_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--baseline-dir", metavar="DIR",
        help="baseline store root (default: benchmarks/baselines/)",
    )


def configure_perf_gate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threshold", type=float, default=0.05,
        help="relative regression threshold on simulated stage seconds",
    )
    _baseline_dir_flag(parser)
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
        BaselineStore,
        build_profile,
        perfgate,
        render_gate,
        write_collapsed,
    )

    store = BaselineStore(args.baseline_dir) if args.baseline_dir else None
    trajectory = args.trajectory or perfgate.DEFAULT_TRAJECTORY
    # The suite opens (and closes) its own session on telemetry_path.
    report = perfgate.run_perf_gate(
        store=store,
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


def configure_baselines(parser: argparse.ArgumentParser) -> None:
    _baseline_dir_flag(parser)
    sub = parser.add_subparsers(dest="baselines_command", required=True)
    sub.add_parser("list", help="refs, keys and gc candidates")
    show = sub.add_parser("show", help="print one stored payload")
    show.add_argument("name", help="ref name or raw content key")
    gc = sub.add_parser(
        "gc", help="drop unreferenced objects (dry run unless --apply)"
    )
    gc.add_argument(
        "--apply", action="store_true",
        help="actually delete the unreferenced objects",
    )


def run_baselines(args: argparse.Namespace) -> int:
    import json

    from repro.obs.observatory import BaselineStore

    store = BaselineStore(args.baseline_dir or None)
    if args.baselines_command == "list":
        rows = [[name, store.resolve(name) or "-"] for name in store.names()]
        if rows:
            print(format_table(["ref", "key"], rows, title="baseline refs"))
        else:
            print("no baseline refs")
        unreferenced = store.unreferenced_keys()
        print(
            f"{len(store.keys())} object(s), {len(unreferenced)} unreferenced"
            + (" (gc candidates)" if unreferenced else "")
        )
        return 0
    if args.baselines_command == "show":
        try:
            payload = store.load(args.name)
        except KeyError:
            raise SystemExit(f"{args.name}: no such baseline ref or object")
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    # gc
    doomed = store.gc(dry_run=not args.apply)
    if not doomed:
        print("nothing to gc: every object is referenced")
        return 0
    verb = "deleted" if args.apply else "would delete"
    for key in doomed:
        print(f"{verb} {key}")
    if not args.apply:
        print(f"dry run: {len(doomed)} object(s); re-run with --apply to delete")
    return 0
