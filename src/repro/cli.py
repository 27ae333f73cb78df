"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``datasets``          — print the Table I analogues;
- ``probe``             — print the Fig. 9 PM characterization;
- ``embed``             — embed a Table I analogue or an edge-list file;
- ``spmm``              — run one instrumented SpMM and print the cost
  anatomy;
- ``compare``           — run the Fig. 12 system arms on one graph;
- ``report``            — render a telemetry file back into the
  Fig. 7(a)-style breakdown tables (plus the hot-span table);
- ``serve-sim``         — replay a request trace against the resilient
  embedding server (:mod:`repro.serve`), optionally under a serve-time
  fault plan (backend stalls, request bursts, PM degradation) and/or a
  declarative SLO spec (``--slo``, with error-budget burn rates);
- ``diff``              — per-stage / per-metric deltas between two
  telemetry files, nonzero exit when a time-like series regresses
  past ``--threshold``;
- ``profile``           — fold a telemetry file's spans into a
  flamegraph-style profile; ``--out`` writes the collapsed-stack text
  form standard flamegraph tooling consumes;
- ``perf-gate``         — run the pinned micro-bench suite, compare
  against the stored baseline (``benchmarks/baselines/``) and append a
  ``BENCH_omega.json`` trajectory point (the CI perf-regression gate);
- ``top``               — the real-time ops view: tail a telemetry
  file and render req/s, shed/deadline rates, breaker state,
  rung occupancy, SpMM throughput and SLO burn (``--once`` renders a
  single frame; ``--format prom`` emits Prometheus exposition text);
- ``why``               — per-request tail-latency forensics: rebuild a
  request's causal tree from a serve telemetry file and render it as a
  waterfall with per-category blame fractions (queue / breaker /
  shard-hedge / stale-fallback / kernel), incident-linked; without a
  trace id, renders the slowest ``--worst N`` retained exemplars;
- ``attribute``         — fold a serve telemetry file into the aggregate
  per-class blame table (``--check`` exits nonzero when any request's
  blame fails to sum to its simulated latency);
- ``trend``             — per-series trajectories over the
  ``BENCH_omega.json`` perf history, with sparklines (perf-gate points
  contribute ``attribution.*`` blame-fraction series);
- ``baselines``         — inspect the baseline store: ``list`` refs,
  ``show`` a payload, ``gc`` unreferenced objects (dry-run default).

``embed``, ``spmm``, ``compare``, ``serve-sim``, ``perf-gate`` and
``calibrate`` accept ``--telemetry-out PATH`` to stream spans, events,
metrics and cost ledgers to one crash-tolerant JSONL file while the run
is in flight (see :mod:`repro.obs`) — the file every view above reads
and ``repro top`` tails; ``--follow`` also prints its progress records
in this terminal.  ``embed`` additionally takes ``--faults PLAN.json`` (a
:class:`repro.faults.FaultPlan`) to run under injected faults with
stage-granular checkpoints, ``--resume`` to recover from injected
crashes and finish the run, and ``--slo SPEC.json`` to gate the
pipeline's stage budgets and checkpoint overhead.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.baselines.systems import run_arm, standard_arms
from repro.bench.harness import format_seconds, format_table, project_full_scale
from repro.core.config import (
    AllocationScheme,
    ExecBackend,
    MemoryMode,
    OMeGaConfig,
    ParallelConfig,
    PlacementScheme,
)
from repro.core.embedding import OMeGaEmbedder
from repro.core.spmm import SpMMEngine
from repro.faults import FaultInjector, FaultPlan, InjectedCrash
from repro.formats.convert import edges_to_csdb
from repro.graphs.datasets import DATASET_NAMES, dataset_table, load_dataset
from repro.graphs.io import load_edge_list
from repro.memsim.devices import pm_spec
from repro.memsim.persistence import CheckpointedEmbedder
from repro.memsim.probe import peak_bandwidth_summary, probe_bandwidth
from repro.obs.export import TelemetrySession
from repro.obs.live import progress_line
from repro.obs.report import render_report_file


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=int, default=16)
    parser.add_argument("--dim", type=int, default=32)
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
    parser.add_argument(
        "--exec-backend",
        choices=[b.value for b in ExecBackend],
        default=None,
        help=(
            "execution backend for the real kernels: 'simulated' (serial,"
            " deterministic default), 'shared_memory' (worker-process"
            " pool over zero-copy CSDB views), or 'threads' (persistent"
            " in-process thread pool, zero segment copies); every"
            " backend produces bit-identical output"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the shared-memory backend (default 2)",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="stream spans/events/metrics/cost ledgers to a JSONL file"
        " while the run is in flight (see 'repro report', 'repro top')",
    )
    parser.add_argument(
        "--follow",
        action="store_true",
        help="with --telemetry-out: also print stages and shard events"
        " in this terminal as they complete",
    )


def _parallel_from_args(args: argparse.Namespace) -> ParallelConfig:
    """Backend selection: explicit flags beat env vars beat defaults."""
    parallel = ParallelConfig.default()
    backend = getattr(args, "exec_backend", None)
    workers = getattr(args, "workers", None)
    if backend is not None:
        parallel = replace(parallel, backend=ExecBackend(backend))
    if workers is not None:
        parallel = replace(parallel, n_workers=workers)
    return parallel


def _config_from_args(args: argparse.Namespace, capacity_scale: int) -> OMeGaConfig:
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
        parallel=_parallel_from_args(args),
    )


def _load_graph(args: argparse.Namespace):
    if args.graph.upper() in DATASET_NAMES:
        dataset = load_dataset(args.graph)
        return dataset.edges, dataset.n_nodes, dataset.scale, dataset.name
    edges, n_nodes = load_edge_list(args.graph)
    return edges, n_nodes, 1, args.graph


def cmd_datasets(_: argparse.Namespace) -> int:
    rows = dataset_table()
    print(
        format_table(
            ["graph", "paper nodes", "paper edges", "scale", "nodes", "edges"],
            [
                [
                    r["graph"],
                    f"{r['paper_nodes']:,}",
                    f"{r['paper_edges']:,}",
                    r["scale"],
                    f"{r['nodes']:,}",
                    f"{r['edges']:,}",
                ]
                for r in rows
            ],
            title="Table I analogues",
        )
    )
    return 0


def cmd_probe(_: argparse.Namespace) -> int:
    results = probe_bandwidth(pm_spec(), thread_counts=(1, 4, 16, 28))
    rows = [
        [
            f"{r.op.value}-{r.pattern.value}-{r.locality.value}",
            r.threads,
            f"{r.bandwidth_gib_s:.2f}",
        ]
        for r in results
    ]
    print(format_table(["curve", "threads", "GiB/s"], rows, "PM probe (Fig. 9)"))
    for name, value in peak_bandwidth_summary(pm_spec()).items():
        print(f"  {name} = {value:.2f}")
    return 0


def _engine_meta(
    args: argparse.Namespace, command: str, graph: str
) -> dict:
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


def _telemetry_session(
    args: argparse.Namespace, meta: dict, force: bool = False
) -> TelemetrySession | None:
    """The command's session (None unless a file or ``force`` needs one)."""
    path = args.telemetry_out
    follow = getattr(args, "follow", False)
    if follow and not path:
        raise SystemExit("--follow requires --telemetry-out PATH")
    if not path and not force:
        return None
    session = TelemetrySession(meta=meta)
    if path:
        session.stream_to(
            path, on_record=_print_progress if follow else None
        )
    return session


def _close_telemetry(session: TelemetrySession | None) -> None:
    if session is not None and session.stream is not None:
        print(f"telemetry written to {session.close_stream()}")


def _embed_under_faults(
    args: argparse.Namespace,
    embedder: OMeGaEmbedder,
    edges: np.ndarray,
    n_nodes: int,
    session: TelemetrySession | None,
):
    """Run ``embed`` under a fault plan; returns the result or None.

    Crashes propagate as printed diagnostics; with ``--resume`` the run
    recovers from the last durable stage checkpoint (repeatedly, if the
    plan arms several crashes) and still completes.
    """
    plan = FaultPlan.load(args.faults)
    injector = FaultInjector(plan, embedder.metrics)
    checkpointed = CheckpointedEmbedder(embedder)
    if session is not None:
        session.event(
            "fault_plan", path=args.faults, seed=plan.seed,
            events=[event.to_dict() for event in plan.events],
        )
    try:
        return checkpointed.embed_with_checkpoints(
            edges, n_nodes, faults=injector
        )
    except InjectedCrash as crash:
        print(
            f"injected crash at stage {crash.site!r} ({crash.phase});"
            f" durable stages: {checkpointed.wal.stages or 'none'}"
        )
        if session is not None:
            session.event("crash", site=crash.site, phase=crash.phase)
        if not args.resume:
            print("re-run with --resume to recover from the checkpoint log")
            return None
    while True:
        try:
            result = checkpointed.resume(faults=injector)
            break
        except InjectedCrash as crash:
            print(
                f"injected crash at stage {crash.site!r} ({crash.phase});"
                " resuming again"
            )
            if session is not None:
                session.event("crash", site=crash.site, phase=crash.phase)
    recovered = embedder.metrics.counter("checkpoint.recovered_stages").value
    recovered_sim = embedder.metrics.counter(
        "checkpoint.recovered_sim_seconds"
    ).value
    print(
        f"resumed: {recovered:.0f} stage checkpoints recovered,"
        f" {format_seconds(recovered_sim)} of simulated work not redone"
    )
    if session is not None:
        session.event(
            "resumed", recovered_stages=recovered,
            recovered_sim_seconds=recovered_sim,
        )
    return result


def cmd_embed(args: argparse.Namespace) -> int:
    edges, n_nodes, scale, name = _load_graph(args)
    config = _config_from_args(args, scale)
    # An SLO evaluation needs the run's spans and metric records even
    # when no telemetry file was requested, so force a session.
    session = _telemetry_session(
        args, _engine_meta(args, "embed", name), force=bool(args.slo)
    )
    embedder = OMeGaEmbedder(
        config,
        tracer=session.tracer if session else None,
        metrics=session.metrics if session else None,
    )
    if args.faults:
        result = _embed_under_faults(args, embedder, edges, n_nodes, session)
        if result is None:
            _close_telemetry(session)
            return 1
    elif args.slo:
        # Route through the checkpointing layer so the run pays (and
        # accounts, as checkpoint.sim_seconds) realistic persistence
        # overhead — the numerator of the overhead-fraction objective.
        result = CheckpointedEmbedder(embedder).embed_with_checkpoints(
            edges, n_nodes
        )
    else:
        result = embedder.embed_edges(edges, n_nodes)
    print(
        f"{name}: embedded {n_nodes:,} nodes in"
        f" {format_seconds(result.sim_seconds)} simulated"
        f" ({format_seconds(project_full_scale(result.sim_seconds, scale))}"
        f" projected), {result.n_spmm} SpMM ops,"
        f" {result.spmm_fraction * 100:.0f}% in SpMM"
    )
    if args.output:
        np.save(args.output, result.embedding)
        print(f"embedding saved to {args.output}")
    if session is not None:
        session.add_cost_trace("embed", result.trace)
    slo_ok = True
    if args.slo:
        from repro.obs.observatory import SLOSpec, evaluate_slo, render_slo

        slo_report = evaluate_slo(session.records(), SLOSpec.load(args.slo))
        print(render_slo(slo_report))
        session.event(
            "slo",
            spec=args.slo,
            ok=slo_report.ok,
            violations=[r.objective.name for r in slo_report.violations],
            burn_rates={
                r.objective.name: r.burn_rate for r in slo_report.results
            },
        )
        slo_ok = slo_report.ok
    _close_telemetry(session)
    return 0 if slo_ok else 1


def cmd_spmm(args: argparse.Namespace) -> int:
    edges, n_nodes, scale, name = _load_graph(args)
    config = _config_from_args(args, scale)
    matrix = edges_to_csdb(edges, n_nodes)
    dense = np.random.default_rng(0).standard_normal((n_nodes, args.dim))
    session = _telemetry_session(args, _engine_meta(args, "spmm", name))
    engine = SpMMEngine(
        config,
        tracer=session.tracer if session else None,
        metrics=session.metrics if session else None,
    )
    # The real backends only exist at compute time — run the real
    # kernels there so the pool (and its per-partition telemetry) is
    # actually exercised; the simulated default stays a pure cost-model
    # pass unless --repeat asks for measured kernel walls.
    repeat = max(int(getattr(args, "repeat", 1) or 1), 1)
    compute = (
        config.parallel.backend is not ExecBackend.SIMULATED or repeat > 1
    )
    result = engine.multiply(matrix, dense, compute=compute)
    if repeat > 1:
        # Cold-vs-warm: call 1 paid pool start-up and operand staging
        # (the shared copy of the matrix, the mapped scratch buffers);
        # later calls reuse them, so their kernel wall is the warm-path
        # cost that Chebyshev iterations and serve requests actually
        # pay.
        walls = [result.kernel_wall_seconds]
        for _ in range(repeat - 1):
            walls.append(
                engine.multiply(matrix, dense, compute=True)
                .kernel_wall_seconds
            )
        cold, warm = walls[0], min(walls[1:])
        print(
            f"{name}: kernel wall over {repeat} calls"
            f" (backend={config.parallel.backend.value})"
        )
        print(
            format_table(
                ["call", "kernel wall", "vs cold"],
                [
                    [
                        str(i + 1) + (" (cold)" if i == 0 else ""),
                        format_seconds(wall),
                        f"{cold / wall:.2f}x" if wall > 0 else "-",
                    ]
                    for i, wall in enumerate(walls)
                ],
            )
        )
        print(
            f"cold {format_seconds(cold)} -> best warm"
            f" {format_seconds(warm)}"
            f" ({cold / warm:.2f}x)" if warm > 0 else ""
        )
    print(
        f"{name}: SpMM over {matrix.nnz:,} nnz in"
        f" {format_seconds(result.sim_seconds)} simulated"
        f" ({result.throughput_nnz_per_s / 1e6:.1f} Mnnz/s)"
    )
    total = result.trace.total_seconds
    rows = [
        [category, format_seconds(seconds), f"{seconds / total * 100:.1f}%"]
        for category, seconds in sorted(
            result.trace.breakdown().items(), key=lambda kv: -kv[1]
        )
    ]
    print(format_table(["step", "time (sum over threads)", "share"], rows))
    if session is not None:
        session.add_cost_trace("spmm", result.trace)
    _close_telemetry(session)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    print(render_report_file(args.trace))
    return 0


def _load_run(spec: str) -> list:
    """Records of one diff side: a JSONL path or a stored baseline.

    Anything that exists on disk is read as a telemetry file; otherwise
    the name (or raw content key) is resolved against the baseline
    store, where payloads of the ``{"records": [...]}`` shape (see
    ``benchmarks/common.publish_baseline``) hold a full export.
    """
    from repro.obs.live import load_records

    if Path(spec).is_file():
        return load_records(spec)
    from repro.obs.observatory import BaselineStore

    try:
        payload = BaselineStore().load(spec)
    except KeyError:
        raise SystemExit(
            f"{spec}: neither a telemetry file nor a stored baseline"
        )
    return payload.get("records", [])


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.observatory import diff_runs, render_diff

    report = diff_runs(
        _load_run(args.run_a),
        _load_run(args.run_b),
        threshold=args.threshold,
        include_profile=args.profile,
        include_placement=args.shard_placement,
        include_attribution=args.attribution,
    )
    print(render_diff(report))
    return 1 if report.regressions else 0


def cmd_profile(args: argparse.Namespace) -> int:
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


def cmd_perf_gate(args: argparse.Namespace) -> int:
    from repro.obs.observatory import (
        BaselineStore,
        build_profile,
        render_gate,
        run_perf_gate,
        write_collapsed,
    )
    from repro.obs.observatory.perfgate import DEFAULT_TRAJECTORY

    store = BaselineStore(args.baseline_dir) if args.baseline_dir else None
    trajectory = args.trajectory if args.trajectory else DEFAULT_TRAJECTORY
    report = run_perf_gate(
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


def cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.live import (
        StreamFollower,
        build_top_frame,
        latest_metric_records,
        read_stream,
        render_prom,
        render_top,
    )

    spec = None
    if args.slo:
        from repro.obs.observatory import SLOSpec

        spec = SLOSpec.load(args.slo)

    if args.once:
        if not Path(args.stream).is_file():
            raise SystemExit(f"{args.stream}: no such stream file")
        records, _ = read_stream(args.stream)
        if args.format == "prom":
            print(render_prom(latest_metric_records(records)))
        else:
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


def cmd_trend(args: argparse.Namespace) -> int:
    from repro.obs.observatory.perfgate import DEFAULT_TRAJECTORY
    from repro.obs.observatory.trend import load_trajectory, render_trend

    path = args.trajectory if args.trajectory else DEFAULT_TRAJECTORY
    points = load_trajectory(path)
    if not points:
        print(f"no trajectory at {path}")
        return 0
    print(render_trend(points, prefix=args.prefix))
    return 0


def cmd_why(args: argparse.Namespace) -> int:
    from repro.obs.forensics import fold_stream, render_waterfall
    from repro.obs.live import load_records

    if not Path(args.stream).is_file():
        raise SystemExit(f"{args.stream}: no such stream file")
    keep = (args.trace_id,) if args.trace_id else ()
    report = fold_stream(
        load_records(args.stream),
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


def cmd_attribute(args: argparse.Namespace) -> int:
    from repro.obs.forensics import fold_stream
    from repro.obs.forensics.blame import ordered_categories
    from repro.obs.live import load_records

    if not Path(args.stream).is_file():
        raise SystemExit(f"{args.stream}: no such stream file")
    report = fold_stream(load_records(args.stream))
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
        for klass, overlap in sorted(report.refresh_overlap.items()):
            print(
                f"checkpointer overlap ({klass}):"
                f" {format_seconds(overlap)} — off the request clock"
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


def cmd_baselines(args: argparse.Namespace) -> int:
    import json

    from repro.obs.observatory import BaselineStore

    store = BaselineStore(args.baseline_dir) if args.baseline_dir else BaselineStore()
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


def cmd_serve_sim(args: argparse.Namespace) -> int:
    from repro.memsim.clock import VirtualClock
    from repro.serve import (
        EmbeddingBackend,
        EmbeddingServer,
        RequestTrace,
        ServePolicy,
    )

    edges, n_nodes, scale, name = _load_graph(args)
    config = _config_from_args(args, scale)
    # An SLO evaluation needs the run's metric records even when no
    # telemetry file was requested, so force an in-memory session.
    session = _telemetry_session(
        args, _engine_meta(args, "serve-sim", name), force=bool(args.slo)
    )
    embedder = OMeGaEmbedder(
        config,
        tracer=session.tracer if session else None,
        metrics=session.metrics if session else None,
    )
    metrics = embedder.metrics

    plan = None
    if args.faults:
        plan = FaultPlan.load(args.faults)
    elif args.fault_seed is not None:
        plan = FaultPlan.random_serve(
            seed=args.fault_seed, n_events=args.fault_events
        )
        if args.shards:
            # One seed drives both layers of chaos: serve-level stalls
            # and process-level shard kills.
            shard_plan = FaultPlan.random_shard(
                seed=args.fault_seed, n_shards=args.shards, max_lookup=8
            )
            plan = FaultPlan(
                events=plan.events + shard_plan.events, seed=plan.seed
            )
    injector = FaultInjector(plan, metrics) if plan is not None else None
    if session is not None and plan is not None:
        session.event(
            "fault_plan", path=args.faults, seed=plan.seed,
            events=[event.to_dict() for event in plan.events],
        )
    if plan is not None and args.save_faults:
        plan.save(args.save_faults)
        print(f"fault plan written to {args.save_faults}")

    shard_info = None
    if args.shards:
        from repro.serve.sharded import ShardedEmbeddingBackend
        from repro.shard import ShardPolicy, SupervisorPolicy

        backend = ShardedEmbeddingBackend(
            embedder,
            edges,
            n_nodes,
            # --no-supervisor is the full unsupervised arm: no repairs
            # AND no hedging, so a lost shard range is visibly lost.
            shard_policy=ShardPolicy(
                n_shards=args.shards,
                n_replicas=args.replicas,
                hedge_enabled=not args.no_supervisor,
                checkpoint_interval=args.checkpoint_interval,
                staleness_bound=args.staleness_bound,
            ),
            supervisor_policy=(
                None
                if args.no_supervisor
                else SupervisorPolicy(reshard_imbalance=args.reshard)
            ),
            faults=injector,
            metrics=metrics,
            stream=session.stream if session else None,
        )
    else:
        backend = EmbeddingBackend(
            embedder, edges, n_nodes, faults=injector, metrics=metrics
        )
    try:
        warmup_s = backend.warm_up()
        per_node = backend.compute_cost(1)
        if args.trace:
            trace = RequestTrace.load(args.trace)
        else:
            trace = RequestTrace.synthesize(
                seed=args.trace_seed,
                n_requests=args.requests,
                per_node_cost_s=per_node,
                load=args.load,
            )
        if args.save_trace:
            trace.save(args.save_trace)
            print(f"request trace written to {args.save_trace}")

        # Calibrate the time-based policy knobs to the mean interactive
        # request (the class with the tight deadlines).
        policy = ServePolicy.calibrated(
            per_node * 8.5,
            queue_limit=args.queue_limit,
            breaker_enabled=not args.no_breaker,
            shedding_enabled=not args.no_shedding,
            deadline_aware=not args.no_deadline_aware,
        )
        server = EmbeddingServer(
            backend,
            policy,
            clock=VirtualClock(),
            metrics=metrics,
            tracer=session.tracer if session else None,
            faults=injector,
            stream=session.stream if session else None,
        )
        report = server.run_trace(trace)
        if args.shards:
            shard_info = backend.shard_summary()
    finally:
        if args.shards:
            backend.close()
    summary = report.summary()
    health = server.healthz()

    fidelity = summary["fidelity"]
    rows = [
        ["submitted", str(summary["submitted"]), ""],
        ["served", str(summary["served"]), ""],
    ] + [
        [f"  {level}", str(count), ""]
        for level, count in sorted(fidelity.items())
    ] + [
        ["shed", str(summary["shed"]), ""],
        ["deadline exceeded", str(summary["deadline_exceeded"]), ""],
        ["failed", str(summary["failed"]), ""],
        ["p50 latency", format_seconds(summary["p50_latency_s"]), ""],
        ["p99 latency", format_seconds(summary["p99_latency_s"]), ""],
        ["breaker trips", str(health["breaker_trips"]), ""],
        ["warmup (simulated)", format_seconds(warmup_s), ""],
    ]
    if shard_info is not None:
        rows += [
            ["shards", str(shard_info["n_shards"]), ""],
            ["shard restarts", str(shard_info["restarts"]), ""],
            ["shard promotions", str(shard_info["promotions"]), ""],
            ["bg checkpoints", str(shard_info["bg_checkpoints"]), ""],
            ["max staleness", str(shard_info["staleness_max"]), ""],
            ["reshard epoch", str(shard_info["reshard_epoch"]), ""],
            [
                "quarantined checkpoints",
                str(shard_info["corrupt_checkpoints"]),
                "",
            ],
            ["shard stale rows", str(shard_info["stale_rows"]), ""],
            [
                "shard hedged",
                str(
                    shard_info["hedged_checkpoint"]
                    + shard_info["hedged_replica"]
                ),
                "",
            ],
        ]
    print(
        format_table(
            ["metric", "value", ""],
            rows,
            title=f"serve-sim on {name} ({len(trace)} trace requests)",
        )
    )
    print(
        f"accounting {'balanced' if report.balanced else 'BROKEN'};"
        f" unhandled exceptions: {health['unhandled_exceptions']};"
        f" final breaker state: {health['breaker_state']}"
    )
    if session is not None:
        session.event(
            "serve_summary",
            breaker_trips=health["breaker_trips"],
            breaker_state=health["breaker_state"],
            unhandled_exceptions=health["unhandled_exceptions"],
            **summary,
        )
        if shard_info is not None:
            session.event("shard_summary", **shard_info)
    slo_ok = True
    if args.slo:
        from repro.obs.observatory import SLOSpec, evaluate_slo, render_slo

        slo_report = evaluate_slo(session.records(), SLOSpec.load(args.slo))
        print(render_slo(slo_report))
        session.event(
            "slo",
            spec=args.slo,
            ok=slo_report.ok,
            violations=[r.objective.name for r in slo_report.violations],
            burn_rates={
                r.objective.name: r.burn_rate for r in slo_report.results
            },
        )
        slo_ok = slo_report.ok
    _close_telemetry(session)
    return 0 if report.balanced and health["healthy"] and slo_ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.graph)
    plan = FaultPlan.load(args.faults) if args.faults else None
    session = _telemetry_session(
        args,
        {
            "command": "compare",
            "graph": dataset.name,
            "threads": args.threads,
            "dim": args.dim,
            "faults": args.faults,
        },
    )
    if session is not None and plan is not None:
        session.event(
            "fault_plan", path=args.faults, seed=plan.seed,
            events=[event.to_dict() for event in plan.events],
        )
    parallel = _parallel_from_args(args)
    rows = []
    for arm in standard_arms(n_threads=args.threads, dim=args.dim):
        arm = replace(
            arm, config=arm.config.with_overrides(parallel=parallel)
        )
        result = run_arm(
            arm,
            dataset,
            tracer=session.tracer if session else None,
            metrics=session.metrics if session else None,
            faults=plan,
        )
        if session is not None:
            session.event(
                "arm", system=arm.name, status=result.status,
                sim_seconds=result.sim_seconds,
            )
            if result.result is not None:
                session.add_cost_trace(arm.name, result.result.trace)
        rows.append(
            [
                arm.name,
                result.status,
                format_seconds(
                    project_full_scale(result.sim_seconds, dataset.scale)
                ),
            ]
        )
    print(
        format_table(
            ["system", "status", "projected time"],
            rows,
            title=f"Fig. 12 arms on {dataset.name}",
        )
    )
    _close_telemetry(session)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OMeGa reproduction — heterogeneous-memory graph embedding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print the Table I analogues")
    sub.add_parser("probe", help="print the Fig. 9 PM characterization")
    calibrate = sub.add_parser(
        "calibrate", help="measured headline ratios vs the paper"
    )
    calibrate.add_argument("--graph", default="LJ")
    calibrate.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="stream per-arm spans and calibration points to a JSONL file",
    )

    embed = sub.add_parser("embed", help="embed a graph")
    embed.add_argument("graph", help="Table I name (PK..FR) or edge-list path")
    embed.add_argument("--output", help="save the embedding as .npy")
    embed.add_argument(
        "--faults",
        metavar="PLAN",
        help="run under a JSON fault plan with stage checkpoints",
    )
    embed.add_argument(
        "--resume",
        action="store_true",
        help="recover from injected crashes via the checkpoint log",
    )
    embed.add_argument(
        "--slo", metavar="SPEC",
        help="evaluate a JSON SLO spec (stage sim-time budgets,"
        " checkpoint-overhead fraction) over the run's telemetry;"
        " violations exit nonzero",
    )
    _add_engine_arguments(embed)

    spmm = sub.add_parser("spmm", help="run one instrumented SpMM")
    spmm.add_argument("graph", help="Table I name (PK..FR) or edge-list path")
    spmm.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run the multiply N times and report cold-vs-warm kernel"
            " wall per call (call 1 pays pool start-up and operand"
            " staging; later calls ride the persistent segment cache)"
        ),
    )
    _add_engine_arguments(spmm)

    compare = sub.add_parser("compare", help="run the Fig. 12 system arms")
    compare.add_argument("graph", choices=list(DATASET_NAMES))
    compare.add_argument("--threads", type=int, default=16)
    compare.add_argument("--dim", type=int, default=32)
    compare.add_argument(
        "--faults",
        metavar="PLAN",
        help="run every arm under the same JSON fault plan"
        " (fresh injector per arm; crashes resume from checkpoints)",
    )
    compare.add_argument(
        "--exec-backend",
        choices=[b.value for b in ExecBackend],
        default=None,
        help="execution backend for every arm's real kernels",
    )
    compare.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for the shared-memory backend",
    )
    compare.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="stream per-arm spans, metrics and cost ledgers to a JSONL"
        " file while the arms run",
    )
    compare.add_argument(
        "--follow", action="store_true",
        help="with --telemetry-out: also print arms and stages in this"
        " terminal as they complete",
    )

    report = sub.add_parser(
        "report", help="render a telemetry JSONL file as breakdown tables"
    )
    report.add_argument("trace", help="path to a --telemetry-out JSONL file")

    diff = sub.add_parser(
        "diff",
        help="per-stage/per-metric deltas between two telemetry exports",
    )
    diff.add_argument(
        "run_a", help="baseline: telemetry JSONL file or stored baseline name"
    )
    diff.add_argument(
        "run_b", help="candidate: telemetry JSONL file or stored baseline name"
    )
    diff.add_argument(
        "--threshold", type=float, default=0.05,
        help="relative regression threshold on time-like series"
        " (default 0.05 = 5%%; breaches exit nonzero)",
    )
    diff.add_argument(
        "--profile", action="store_true",
        help="also diff per-node simulated self seconds of the folded"
        " profiles (threshold-gated like the stage series)",
    )
    diff.add_argument(
        "--shard-placement", action="store_true",
        help="also diff the shard.placement.* gauges: real per-shard"
        " rows/nnz and balance/edge-cut vs the DistDGL and DistGER"
        " partitioning cost models",
    )
    diff.add_argument(
        "--attribution", action="store_true",
        help="also diff the per-class tail-latency blame fractions"
        " (serve.blame_seconds), gated — a latency mix shifting toward"
        " queue/hedge blame fails even when totals look flat",
    )

    profile = sub.add_parser(
        "profile",
        help="fold a telemetry export's spans into a flamegraph profile",
    )
    profile.add_argument("trace", help="path to a --telemetry-out JSONL file")
    profile.add_argument(
        "--out", metavar="PATH",
        help="write collapsed-stack text (flamegraph.pl / speedscope input)",
    )
    profile.add_argument(
        "--clock", choices=("sim", "wall"), default="sim",
        help="which clock the collapsed counts measure (default: sim)",
    )
    profile.add_argument(
        "--top", type=int, default=15,
        help="rows in the printed hot-span table",
    )

    gate = sub.add_parser(
        "perf-gate",
        help="run the pinned micro-bench suite against the stored baseline",
    )
    gate.add_argument(
        "--threshold", type=float, default=0.05,
        help="relative regression threshold on simulated stage seconds",
    )
    gate.add_argument(
        "--baseline-dir", metavar="DIR",
        help="baseline store root (default: benchmarks/baselines/)",
    )
    gate.add_argument(
        "--update-baseline", action="store_true",
        help="pin this run's stages as the new baseline",
    )
    gate.add_argument(
        "--faults", metavar="PLAN",
        help="run the suite under a fault plan (chaos check of the gate;"
        " never updates the baseline or trajectory)",
    )
    gate.add_argument(
        "--trajectory", metavar="PATH",
        help="trajectory file to append to (default: BENCH_omega.json)",
    )
    gate.add_argument(
        "--no-trajectory", action="store_true",
        help="skip appending a trajectory point",
    )
    gate.add_argument(
        "--profile-out", metavar="PATH",
        help="write the suite's collapsed-stack profile (CI artifact)",
    )
    gate.add_argument(
        "--telemetry-out", metavar="PATH",
        help="stream the suite's telemetry to a JSONL file while it"
        " runs (tail it with 'repro top PATH'; CI uploads it)",
    )

    serve = sub.add_parser(
        "serve-sim",
        help="replay a request trace against the resilient embedding server",
    )
    serve.add_argument(
        "graph", help="Table I name (PK..FR) or edge-list path"
    )
    serve.add_argument(
        "--trace", metavar="PATH",
        help="request trace JSON (RequestTrace.save); default: synthesize",
    )
    serve.add_argument(
        "--requests", type=int, default=500,
        help="synthesized trace length (ignored with --trace)",
    )
    serve.add_argument(
        "--trace-seed", type=int, default=0,
        help="seed of the synthesized trace (ignored with --trace)",
    )
    serve.add_argument(
        "--load", type=float, default=0.8,
        help="offered utilization of the synthesized trace",
    )
    serve.add_argument(
        "--save-trace", metavar="PATH",
        help="write the (possibly synthesized) trace as JSON",
    )
    serve.add_argument(
        "--faults", metavar="PLAN",
        help="serve-time fault plan JSON (stalls, bursts, PM degradation)",
    )
    serve.add_argument(
        "--fault-seed", type=int,
        help="synthesize a serve-time fault plan from this seed",
    )
    serve.add_argument(
        "--fault-events", type=int, default=4,
        help="events in the synthesized fault plan",
    )
    serve.add_argument(
        "--save-faults", metavar="PATH",
        help="write the active fault plan as JSON",
    )
    serve.add_argument("--queue-limit", type=int, default=64)
    serve.add_argument(
        "--no-breaker", action="store_true",
        help="disable the circuit breaker (chaos-comparison arm)",
    )
    serve.add_argument(
        "--no-shedding", action="store_true",
        help="disable load shedding (unbounded admission queue)",
    )
    serve.add_argument(
        "--no-deadline-aware", action="store_true",
        help="disable deadline-aware rung selection in the ladder",
    )
    serve.add_argument(
        "--slo", metavar="SPEC",
        help="evaluate a JSON SLO spec over the replay's telemetry"
        " (per-objective pass/fail + burn rate; violations exit nonzero)",
    )
    serve.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="serve the full tier from N shard processes (0 = monolithic);"
        " with --fault-seed the plan also gets seeded shard chaos",
    )
    serve.add_argument(
        "--no-supervisor", action="store_true",
        help="disable the shard supervisor (crashed shards stay down)",
    )
    serve.add_argument(
        "--checkpoint-interval", type=int, default=0, metavar="N",
        help="background-checkpoint each shard every N lookups"
        " (staggered across shards; 0 = no cadence)",
    )
    serve.add_argument(
        "--staleness-bound", type=int, default=0, metavar="V",
        help="force a background checkpoint whenever a shard falls V"
        " table versions behind (0 = unbounded)",
    )
    serve.add_argument(
        "--replicas", type=int, default=0, metavar="N",
        help="N warm standby replicas per shard; the supervisor promotes"
        " one on primary death instead of replaying the WAL",
    )
    serve.add_argument(
        "--reshard", type=float, default=0.0, metavar="RATIO",
        help="split the hottest shard online when served-row load"
        " imbalance (max/mean) exceeds RATIO (0 = never reshard)",
    )
    _add_engine_arguments(serve)

    top = sub.add_parser(
        "top",
        help="real-time ops view over a telemetry file",
    )
    top.add_argument("stream", help="path to a --telemetry-out JSONL file")
    top.add_argument(
        "--once", action="store_true",
        help="render a single frame from the stream's current contents",
    )
    top.add_argument(
        "--format", choices=("table", "prom"), default="table",
        help="frame format with --once: human table or Prometheus"
        " exposition text",
    )
    top.add_argument(
        "--interval", type=float, default=0.5, metavar="S",
        help="seconds between follow-mode polls (default 0.5)",
    )
    top.add_argument(
        "--frames", type=int, default=0, metavar="N",
        help="stop after N follow-mode frames (0 = until stream close)",
    )
    top.add_argument(
        "--slo", metavar="SPEC",
        help="JSON SLO spec to evaluate per frame (burn-rate column)",
    )

    why = sub.add_parser(
        "why",
        help="per-request tail-latency forensics: render the causal tree"
        " of a request (or the slowest N) from a serve telemetry file",
    )
    why.add_argument("stream", help="path to a --telemetry-out JSONL file")
    why.add_argument(
        "trace_id", nargs="?", default=None,
        help="render this request's tree (default: the slowest --worst N)",
    )
    why.add_argument(
        "--worst", type=int, default=3, metavar="N",
        help="without a trace id: render the N slowest retained"
        " exemplars (default 3)",
    )
    why.add_argument(
        "--klass", metavar="CLASS",
        help="restrict --worst to one request class"
        " (e.g. interactive, batch)",
    )

    attribute = sub.add_parser(
        "attribute",
        help="fold a serve telemetry file into the per-class tail-latency"
        " blame table (queue/breaker/shard-hedge/stale/kernel)",
    )
    attribute.add_argument(
        "stream", help="path to a --telemetry-out JSONL file"
    )
    attribute.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="human table or the JSON payload CI consumes",
    )
    attribute.add_argument(
        "--check", action="store_true",
        help="exit 2 if any request's blame does not sum to its"
        " simulated latency (the critical-path invariant)",
    )

    trend = sub.add_parser(
        "trend",
        help="per-series perf trajectories over BENCH_omega.json",
    )
    trend.add_argument(
        "--trajectory", metavar="PATH",
        help="trajectory file (default: BENCH_omega.json)",
    )
    trend.add_argument(
        "--prefix", metavar="P",
        help="only series whose name starts with P (e.g. 'stages.')",
    )

    baselines = sub.add_parser(
        "baselines",
        help="inspect the baseline store (refs, payloads, gc)",
    )
    baselines.add_argument(
        "--baseline-dir", metavar="DIR",
        help="baseline store root (default: benchmarks/baselines/)",
    )
    baselines_sub = baselines.add_subparsers(
        dest="baselines_command", required=True
    )
    baselines_sub.add_parser("list", help="refs, keys and gc candidates")
    show = baselines_sub.add_parser("show", help="print one stored payload")
    show.add_argument("name", help="ref name or raw content key")
    gc = baselines_sub.add_parser(
        "gc", help="drop unreferenced objects (dry run unless --apply)"
    )
    gc.add_argument(
        "--apply", action="store_true",
        help="actually delete the unreferenced objects",
    )

    return parser


def cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.bench.calibration import calibration_report, format_report

    session = _telemetry_session(
        args, {"command": "calibrate", "graph": args.graph}
    )
    points = calibration_report(
        args.graph,
        tracer=session.tracer if session else None,
        metrics=session.metrics if session else None,
    )
    print(format_report(points))
    if session is not None:
        for point in points:
            session.event(
                "calibration_point", ratio=point.name,
                paper_value=point.paper_value, measured=point.measured,
                in_band=point.in_band,
            )
    _close_telemetry(session)
    return 0 if all(p.in_band for p in points) else 1


COMMANDS = {
    "datasets": cmd_datasets,
    "probe": cmd_probe,
    "calibrate": cmd_calibrate,
    "embed": cmd_embed,
    "spmm": cmd_spmm,
    "compare": cmd_compare,
    "report": cmd_report,
    "serve-sim": cmd_serve_sim,
    "diff": cmd_diff,
    "profile": cmd_profile,
    "perf-gate": cmd_perf_gate,
    "top": cmd_top,
    "why": cmd_why,
    "attribute": cmd_attribute,
    "trend": cmd_trend,
    "baselines": cmd_baselines,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
