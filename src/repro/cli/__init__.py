"""Command-line interface: ``python -m repro <command>``.

:data:`COMMANDS` is the one list of commands.  A row is
``name: (help, configure, run)``: ``help`` is the line ``repro --help``
prints, ``configure(parser)`` declares the command's arguments on its
subparser, ``run(args)`` does the work and returns the exit code.

A new command is a ``configure_x`` / ``run_x`` pair in its family module
— :mod:`~repro.cli.run` (runs the engine), :mod:`~repro.cli.serve` (the
serving tier), :mod:`~repro.cli.views` (only reads a file),
:mod:`~repro.cli.gate` (perf gate, baseline store) — plus one row here;
what it shares with other commands comes from :mod:`~repro.cli.scaffold`.
"""

from __future__ import annotations

import argparse

from repro.cli import gate, run, serve, views
from repro.cli.scaffold import no_flags

COMMANDS = {
    "datasets": ("print the Table I analogues", no_flags, run.run_datasets),
    "probe": ("print the Fig. 9 PM characterization", no_flags, run.run_probe),
    "calibrate": (
        "measured headline ratios vs the paper",
        run.configure_calibrate, run.run_calibrate,
    ),
    "embed": ("embed a graph", run.configure_embed, run.run_embed),
    "spmm": ("run one instrumented SpMM", run.configure_spmm, run.run_spmm),
    "compare": (
        "run the Fig. 12 system arms", run.configure_compare, run.run_compare,
    ),
    "report": (
        "render a telemetry JSONL file as breakdown tables",
        views.configure_report, views.run_report,
    ),
    "diff": (
        "per-stage/per-metric deltas between two telemetry exports",
        views.configure_diff, views.run_diff,
    ),
    "profile": (
        "fold a telemetry export's spans into a flamegraph profile",
        views.configure_profile, views.run_profile,
    ),
    "perf-gate": (
        "run the pinned micro-bench suite against the stored baseline",
        gate.configure_perf_gate, gate.run_perf_gate,
    ),
    "serve-sim": (
        "replay a request trace against the resilient embedding server",
        serve.configure_serve_sim, serve.run_serve_sim,
    ),
    "top": (
        "real-time ops view over a telemetry file",
        views.configure_top, views.run_top,
    ),
    "why": (
        "per-request tail-latency forensics: render the causal tree"
        " of a request (or the slowest N) from a serve telemetry file",
        views.configure_why, views.run_why,
    ),
    "attribute": (
        "fold a serve telemetry file into the per-class tail-latency"
        " blame table (queue/breaker/shard-hedge/stale/kernel)",
        views.configure_attribute, views.run_attribute,
    ),
    "trend": (
        "per-series perf trajectories over BENCH_omega.json",
        views.configure_trend, views.run_trend,
    ),
    "baselines": (
        "inspect the baseline store (refs, payloads, gc)",
        gate.configure_baselines, gate.run_baselines,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OMeGa reproduction — heterogeneous-memory graph embedding",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, configure, _) in COMMANDS.items():
        configure(sub.add_parser(name, help=help_line))
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _, _, run_command = COMMANDS[args.command]
    return run_command(args)
