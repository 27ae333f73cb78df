"""The commands that only read a file: ``report``, ``diff``, ``profile``,
``top``, ``why`` and ``attribute`` render a ``--telemetry-out`` file
(``diff`` two of them), ``trend`` the ``BENCH_omega.json`` trajectory.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import format_seconds, format_table
from repro.cli import scaffold
from repro.obs.report import render_report_file


def configure_report(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("trace", help="path to a --telemetry-out JSONL file")


def run_report(args: argparse.Namespace) -> int:
    print(render_report_file(args.trace))
    return 0


def configure_diff(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("run_a", help="baseline: telemetry JSONL file")
    parser.add_argument("run_b", help="candidate: telemetry JSONL file")
    scaffold.threshold_flag(parser, "time-like series")
    parser.add_argument(
        "--profile", action="store_true",
        help="also diff per-node simulated self seconds of the folded"
        " profiles (threshold-gated like the stage series)",
    )
    parser.add_argument(
        "--shard-placement", action="store_true",
        help="also diff the shard.placement.* gauges: real per-shard"
        " rows/nnz and balance/edge-cut vs the DistDGL and DistGER"
        " partitioning cost models",
    )
    parser.add_argument(
        "--attribution", action="store_true",
        help="also diff the per-class tail-latency blame fractions"
        " (serve.blame_seconds), gated — a latency mix shifting toward"
        " queue/hedge blame fails even when totals look flat",
    )


def run_diff(args: argparse.Namespace) -> int:
    from repro.obs.live import load_records
    from repro.obs.observatory import diff_runs, render_diff

    report = diff_runs(
        load_records(scaffold.stream_file(args.run_a)),
        load_records(scaffold.stream_file(args.run_b)),
        threshold=args.threshold,
        include_profile=args.profile,
        include_placement=args.shard_placement,
        include_attribution=args.attribution,
    )
    print(render_diff(report))
    return 1 if report.regressions else 0


def configure_profile(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("trace", help="path to a --telemetry-out JSONL file")
    parser.add_argument(
        "--out", metavar="PATH",
        help="write collapsed-stack text (flamegraph.pl / speedscope input)",
    )
    parser.add_argument(
        "--clock", choices=("sim", "wall"), default="sim",
        help="which clock the collapsed counts measure (default: sim)",
    )
    parser.add_argument(
        "--top", type=int, default=15,
        help="rows in the printed hot-span table",
    )


def run_profile(args: argparse.Namespace) -> int:
    from repro.obs.live import canonical_order, read_stream
    from repro.obs.observatory import build_profile, write_collapsed
    from repro.obs.report import hot_span_table, skipped_tail_note

    records, skipped = read_stream(args.trace)
    spans = [r for r in canonical_order(records) if r.get("type") == "span"]
    profile = build_profile(spans)
    print(
        hot_span_table(
            profile,
            top_n=args.top,
            title=(
                f"Profile of {args.trace}"
                f" ({format_seconds(profile.sim_total)} simulated total)"
            ),
        )
    )
    if skipped:
        print(skipped_tail_note(skipped))
    if args.out:
        write_collapsed(profile, args.out, clock=args.clock)
        print(f"collapsed stacks ({args.clock} clock) written to {args.out}")
    return 0


def configure_top(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("stream", help="path to a --telemetry-out JSONL file")
    parser.add_argument(
        "--once", action="store_true",
        help="render a single frame from the stream's current contents",
    )
    parser.add_argument(
        "--interval", type=float, default=0.5, metavar="S",
        help="seconds between follow-mode polls (default 0.5)",
    )
    parser.add_argument(
        "--frames", type=int, default=0, metavar="N",
        help="stop after N follow-mode frames (0 = until stream close)",
    )
    parser.add_argument(
        "--slo", metavar="SPEC",
        help="JSON SLO spec to evaluate per frame (burn-rate column)",
    )


def run_top(args: argparse.Namespace) -> int:
    from repro.obs.live import (
        StreamFollower,
        build_top_frame,
        read_stream,
        render_top,
    )

    spec = None
    if args.slo:
        from repro.obs.observatory import SLOSpec

        spec = SLOSpec.load(args.slo)

    if args.once:
        records, _ = read_stream(scaffold.stream_file(args.stream))
        print(render_top(build_top_frame(records, spec)))
        return 0

    import time

    follower = StreamFollower(args.stream)
    frames = 0
    try:
        while True:
            follower.poll()
            frame = build_top_frame(follower.records, spec)
            # Clear screen + home, full-screen redraw each frame.
            sys.stdout.write("\x1b[2J\x1b[H" + render_top(frame) + "\n")
            sys.stdout.flush()
            frames += 1
            if follower.closed:
                print("stream closed")
                break
            if args.frames and frames >= args.frames:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def configure_why(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("stream", help="path to a --telemetry-out JSONL file")
    parser.add_argument(
        "trace_id", nargs="?", default=None,
        help="render this request's tree (default: the slowest --worst N)",
    )
    parser.add_argument(
        "--worst", type=int, default=3, metavar="N",
        help="without a trace id: render the N slowest retained"
        " exemplars (default 3)",
    )
    parser.add_argument(
        "--klass", metavar="CLASS",
        help="restrict --worst to one request class"
        " (e.g. interactive, batch)",
    )


def run_why(args: argparse.Namespace) -> int:
    from repro.obs.forensics import fold_stream, render_waterfall
    from repro.obs.live import load_records

    keep = (args.trace_id,) if args.trace_id else ()
    report = fold_stream(
        load_records(scaffold.stream_file(args.stream)),
        worst_k=max(args.worst, 8),
        keep=keep,
    )
    if args.trace_id:
        tree = report.find(args.trace_id)
        if tree is None:
            raise SystemExit(
                f"{args.trace_id}: no forensic tree in {args.stream}"
                " (was the server run with --telemetry-out?)"
            )
        trees = [tree]
    else:
        trees = report.worst(args.worst, klass=args.klass)
        if not trees:
            print("no completed requests with forensic trees in stream")
            return 0
    print(
        f"{report.n_requests} requests in {args.stream}"
        f" ({len(report.incidents)} incidents,"
        f" {len(report.trees)} exemplar trees retained)"
    )
    for tree in trees:
        print()
        print(render_waterfall(tree))
    return 0


def configure_attribute(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("stream", help="path to a --telemetry-out JSONL file")
    parser.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="human table or the JSON payload CI consumes",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 2 if any request's blame does not sum to its"
        " simulated latency (the critical-path invariant)",
    )


def run_attribute(args: argparse.Namespace) -> int:
    from repro.obs.forensics import fold_stream
    from repro.obs.forensics.blame import ordered_categories
    from repro.obs.live import load_records

    report = fold_stream(load_records(scaffold.stream_file(args.stream)))
    violations = report.verify()
    if args.format == "json":
        import json

        payload = report.to_payload()
        payload["violations"] = violations
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        fractions = report.fractions()
        rows = []
        for klass in sorted(report.attribution):
            blame = report.attribution[klass]
            for category in ordered_categories(blame):
                rows.append(
                    [
                        klass,
                        category,
                        format_seconds(blame[category]),
                        f"{fractions[klass].get(category, 0.0) * 100:5.1f}%",
                    ]
                )
        print(
            format_table(
                ["class", "category", "seconds", "fraction"],
                rows,
                title=(
                    f"tail-latency blame over {report.n_requests} requests"
                    f" ({len(report.incidents)} incidents)"
                ),
            )
        )
    if violations:
        print(
            f"INVARIANT VIOLATED: {len(violations)} request(s) whose blame"
            " does not sum to their simulated latency:", file=sys.stderr,
        )
        for violation in violations[:10]:
            print(f"  {violation}", file=sys.stderr)
        if args.check:
            return 2
    return 0


def configure_trend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trajectory", metavar="PATH",
        help="trajectory file (default: BENCH_omega.json)",
    )
    parser.add_argument(
        "--prefix", metavar="P",
        help="only series whose name starts with P (e.g. 'stages.')",
    )


def run_trend(args: argparse.Namespace) -> int:
    from repro.obs.observatory.trend import (
        DEFAULT_TRAJECTORY,
        load_trajectory,
        render_trend,
    )

    path = args.trajectory if args.trajectory else DEFAULT_TRAJECTORY
    points = load_trajectory(path)
    if not points:
        print(f"no trajectory at {path}")
        return 0
    print(render_trend(points, prefix=args.prefix))
    return 0
