"""What the commands share, written once: the flag groups, the argument
→ config plumbing behind them, and the run scaffold (:func:`telemetry`
session, :func:`observers`, :func:`load_fault_plan`, :func:`gate_slo`,
:func:`stream_file`).
"""

from __future__ import annotations

import argparse
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.core.config import (
    AllocationScheme,
    ExecBackend,
    MemoryMode,
    OMeGaConfig,
    ParallelConfig,
    PlacementScheme,
)
from repro.faults import FaultPlan
from repro.graphs.datasets import DATASET_NAMES, load_dataset
from repro.graphs.io import load_edge_list
from repro.obs.export import TelemetrySession
from repro.obs.live import progress_line
from repro.obs.observatory.diff import REGRESSION_THRESHOLD, check_threshold


def no_flags(parser: argparse.ArgumentParser) -> None:
    """``configure`` of a command that takes no arguments."""


def checked(
    build: Callable[[Any], object], cast: Callable[[str], Any] = int
) -> Callable[[str], Any]:
    """An argparse ``type``: ``cast`` the text, then ``build`` what the
    flag sets from the value.  The bound is the one the built object's
    own validation states, and a value outside it is a usage error that
    names the flag (exit 2), not a traceback."""

    def parse(text: str) -> Any:
        value = cast(text)
        try:
            build(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        return value

    parse.__name__ = cast.__name__  # argparse: "invalid int value: 'x'"
    return parse


def size_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threads", type=checked(lambda n: OMeGaConfig(n_threads=n)),
        default=16,
    )
    parser.add_argument(
        "--dim", type=checked(lambda d: OMeGaConfig(dim=d)), default=32
    )


def arm_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=[m.value for m in MemoryMode],
        default=MemoryMode.HETEROGENEOUS.value,
    )
    parser.add_argument(
        "--allocation",
        choices=[a.value for a in AllocationScheme],
        default=AllocationScheme.ENTROPY_AWARE.value,
    )
    parser.add_argument(
        "--placement",
        choices=[p.value for p in PlacementScheme],
        default=PlacementScheme.NADP.value,
    )
    parser.add_argument("--no-prefetch", action="store_true")


def backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--exec-backend",
        choices=[b.value for b in ExecBackend],
        default=None,
        help=(
            "execution backend for the real kernels: 'threads' (default:"
            " one block of rows per worker on a persistent in-process"
            " thread pool, zero copies, small products serial),"
            " 'simulated' (serial), or 'shared_memory' (worker-process"
            " pool over zero-copy CSDB views); every backend produces"
            " bit-identical output"
        ),
    )
    parser.add_argument(
        "--workers", type=checked(lambda n: ParallelConfig(n_workers=n)),
        default=None, metavar="N",
        help="workers for the threads and shared-memory backends: threads"
        " a product is cut into (the calling one included), or worker"
        " processes (default 2)",
    )


def telemetry_flags(
    parser: argparse.ArgumentParser, follow: bool = True
) -> None:
    parser.add_argument(
        "--telemetry-out", metavar="PATH",
        help="stream spans/events/metrics/cost ledgers to a JSONL file"
        " while the run is in flight (see 'repro report', 'repro top')",
    )
    if follow:
        parser.add_argument(
            "--follow", action="store_true",
            help="with --telemetry-out: also print stages and shard events"
            " in this terminal as they complete",
        )


def regression_threshold(text: str) -> float:
    """``--threshold``'s type: a finite number >= 0, else a usage error."""
    try:
        return check_threshold(float(text))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def threshold_flag(parser: argparse.ArgumentParser, series: str) -> None:
    """``--threshold`` of ``diff`` and ``perf-gate``: one default, one
    domain, one regression rule."""
    parser.add_argument(
        "--threshold", type=regression_threshold,
        default=REGRESSION_THRESHOLD,
        help=f"relative regression threshold on {series}"
        " (default %(default)s; breaches exit nonzero)",
    )


def engine_flags(parser: argparse.ArgumentParser) -> None:
    """Everything ``embed`` / ``spmm`` / ``serve-sim`` take in common."""
    size_flags(parser)
    arm_flags(parser)
    backend_flags(parser)
    telemetry_flags(parser)


def parallel_from_args(args: argparse.Namespace) -> ParallelConfig:
    """Backend selection: explicit flags beat env vars beat defaults."""
    parallel = ParallelConfig.default()
    if args.exec_backend is not None:
        parallel = replace(parallel, backend=ExecBackend(args.exec_backend))
    if args.workers is not None:
        parallel = replace(parallel, n_workers=args.workers)
    return parallel


def config_from_args(
    args: argparse.Namespace, capacity_scale: int
) -> OMeGaConfig:
    mode = MemoryMode(args.mode)
    return OMeGaConfig(
        n_threads=args.threads,
        dim=args.dim,
        memory_mode=mode,
        allocation=AllocationScheme(args.allocation),
        placement=PlacementScheme(args.placement),
        prefetcher_enabled=(
            not args.no_prefetch and mode is MemoryMode.HETEROGENEOUS
        ),
        capacity_scale=capacity_scale,
        parallel=parallel_from_args(args),
    )


def load_graph(args: argparse.Namespace):
    """``(edges, n_nodes, scale, name)`` of a Table I name or a file."""
    if args.graph.upper() in DATASET_NAMES:
        dataset = load_dataset(args.graph)
        return dataset.edges, dataset.n_nodes, dataset.scale, dataset.name
    edges, n_nodes = load_edge_list(args.graph)
    return edges, n_nodes, 1, args.graph


def engine_meta(args: argparse.Namespace, command: str, graph: str) -> dict:
    return {
        "command": command,
        "graph": graph,
        "mode": args.mode,
        "allocation": args.allocation,
        "placement": args.placement,
        "threads": args.threads,
        "dim": args.dim,
    }


def _print_progress(record: dict) -> None:
    line = progress_line(record)
    if line is not None:
        print(line, flush=True)


@contextmanager
def telemetry(
    args: argparse.Namespace, meta: dict, force: bool = False
) -> Iterator[TelemetrySession | None]:
    """The command's session: None unless a file or ``force`` needs one.

    With ``--telemetry-out`` it streams to that file; the block's exit,
    normal or raising, closes the file (final metrics, manifest,
    ``stream_closed``) and prints its path.  ``force`` asks for a session
    with no file: an ``--slo`` evaluation reads the run's spans and
    metric records whether or not a file was requested.
    """
    path = args.telemetry_out
    follow = getattr(args, "follow", False)
    if follow and not path:
        raise SystemExit("--follow requires --telemetry-out PATH")
    if not path and not force:
        yield None
        return
    session = TelemetrySession(meta=meta)
    if path:
        session.stream_to(path, on_record=_print_progress if follow else None)
    try:
        yield session
    finally:
        if session.stream is not None:
            print(f"telemetry written to {session.close_stream()}")


def observers(session: TelemetrySession | None) -> dict:
    """``tracer=`` / ``metrics=`` keywords of the session (None without)."""
    return {
        "tracer": session.tracer if session else None,
        "metrics": session.metrics if session else None,
    }


def load_fault_plan(
    session: TelemetrySession | None,
    path: str | None,
    synthesized: FaultPlan | None = None,
) -> FaultPlan | None:
    """The plan at ``path`` (else ``synthesized``), recorded as an event."""
    plan = FaultPlan.load(path) if path else synthesized
    if session is not None and plan is not None:
        session.event(
            "fault_plan", path=path, seed=plan.seed,
            events=[event.to_dict() for event in plan.events],
        )
    return plan


def gate_slo(args: argparse.Namespace, session: TelemetrySession) -> bool:
    """Evaluate ``--slo`` over the session's records; True when it holds."""
    if not args.slo:
        return True
    from repro.obs.observatory import SLOSpec, evaluate_slo, render_slo

    report = evaluate_slo(session.records(), SLOSpec.load(args.slo))
    print(render_slo(report))
    session.event(
        "slo",
        spec=args.slo,
        ok=report.ok,
        violations=[r.objective.name for r in report.violations],
        burn_rates={r.objective.name: r.burn_rate for r in report.results},
    )
    return report.ok


def stream_file(path: str) -> str:
    """``path``, or ``SystemExit`` when no such telemetry file exists."""
    if not Path(path).is_file():
        raise SystemExit(f"{path}: no such stream file")
    return path
