"""``serve-sim``: replay a request trace against the resilient, optionally
sharded, embedding server (:mod:`repro.serve`) under a serve-time fault
plan and/or a declarative SLO spec.
"""

from __future__ import annotations

import argparse

from repro.bench.harness import format_seconds, format_table
from repro.cli import scaffold
from repro.core.embedding import OMeGaEmbedder
from repro.faults import FaultInjector, FaultPlan


def configure_serve_sim(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="Table I name (PK..FR) or edge-list path")
    parser.add_argument(
        "--trace", metavar="PATH",
        help="request trace JSON (RequestTrace.save); default: synthesize",
    )
    parser.add_argument(
        "--requests", type=int, default=500,
        help="synthesized trace length (ignored with --trace)",
    )
    parser.add_argument(
        "--trace-seed", type=int, default=0,
        help="seed of the synthesized trace (ignored with --trace)",
    )
    parser.add_argument(
        "--load", type=float, default=0.8,
        help="offered utilization of the synthesized trace",
    )
    parser.add_argument(
        "--save-trace", metavar="PATH",
        help="write the (possibly synthesized) trace as JSON",
    )
    parser.add_argument(
        "--faults", metavar="PLAN",
        help="serve-time fault plan JSON (stalls, bursts, PM degradation)",
    )
    parser.add_argument(
        "--fault-seed", type=int,
        help="synthesize a serve-time fault plan from this seed",
    )
    parser.add_argument(
        "--fault-events", type=int, default=4,
        help="events in the synthesized fault plan",
    )
    parser.add_argument(
        "--save-faults", metavar="PATH",
        help="write the active fault plan as JSON",
    )
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument(
        "--no-breaker", action="store_true",
        help="disable the circuit breaker (chaos-comparison arm)",
    )
    parser.add_argument(
        "--no-shedding", action="store_true",
        help="disable load shedding (unbounded admission queue)",
    )
    parser.add_argument(
        "--no-deadline-aware", action="store_true",
        help="disable deadline-aware rung selection in the ladder",
    )
    parser.add_argument(
        "--slo", metavar="SPEC",
        help="evaluate a JSON SLO spec over the replay's telemetry"
        " (per-objective pass/fail + burn rate; violations exit nonzero)",
    )
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="serve the full tier from N shard processes (0 = monolithic);"
        " with --fault-seed the plan also gets seeded shard chaos",
    )
    parser.add_argument(
        "--no-supervisor", action="store_true",
        help="disable the shard supervisor (crashed shards stay down)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=int, default=0, metavar="N",
        help="background-checkpoint each shard every N lookups"
        " (staggered across shards; 0 = no cadence)",
    )
    parser.add_argument(
        "--staleness-bound", type=int, default=0, metavar="V",
        help="force a background checkpoint whenever a shard falls V"
        " table versions behind (0 = unbounded)",
    )
    parser.add_argument(
        "--replicas", type=int, default=0, metavar="N",
        help="N warm standby replicas per shard; the supervisor promotes"
        " one on primary death instead of replaying the WAL",
    )
    parser.add_argument(
        "--reshard", type=float, default=0.0, metavar="RATIO",
        help="split the hottest shard online when served-row load"
        " imbalance (max/mean) exceeds RATIO (0 = never reshard)",
    )
    scaffold.engine_flags(parser)


def _synthesized_plan(args: argparse.Namespace) -> FaultPlan | None:
    """The ``--fault-seed`` plan (None without a seed or with a file)."""
    if args.faults or args.fault_seed is None:
        return None
    plan = FaultPlan.random_serve(
        seed=args.fault_seed, n_events=args.fault_events
    )
    if args.shards:
        # One seed drives both layers of chaos: serve-level stalls and
        # process-level shard kills.
        shard_plan = FaultPlan.random_shard(
            seed=args.fault_seed, n_shards=args.shards, max_lookup=8
        )
        plan = FaultPlan(
            events=plan.events + shard_plan.events, seed=plan.seed
        )
    return plan


def _summary_rows(summary: dict, health: dict, warmup_s: float) -> list:
    return [
        ("submitted", summary["submitted"]),
        ("served", summary["served"]),
        *((f"  {k}", v) for k, v in sorted(summary["fidelity"].items())),
        ("shed", summary["shed"]),
        ("deadline exceeded", summary["deadline_exceeded"]),
        ("failed", summary["failed"]),
        ("p50 latency", format_seconds(summary["p50_latency_s"])),
        ("p99 latency", format_seconds(summary["p99_latency_s"])),
        ("breaker trips", health["breaker_trips"]),
        ("warmup (simulated)", format_seconds(warmup_s)),
    ]


def _shard_rows(info: dict) -> list:
    return [
        ("shards", info["n_shards"]),
        ("shard restarts", info["restarts"]),
        ("shard promotions", info["promotions"]),
        ("bg checkpoints", info["bg_checkpoints"]),
        ("max staleness", info["staleness_max"]),
        ("reshard epoch", info["reshard_epoch"]),
        ("quarantined checkpoints", info["corrupt_checkpoints"]),
        ("shard stale rows", info["stale_rows"]),
        ("shard hedged", info["hedged_checkpoint"] + info["hedged_replica"]),
    ]


def run_serve_sim(args: argparse.Namespace) -> int:
    from repro.memsim.clock import VirtualClock
    from repro.serve import (
        EmbeddingBackend,
        EmbeddingServer,
        RequestTrace,
        ServePolicy,
    )

    edges, n_nodes, scale, name = scaffold.load_graph(args)
    # A malformed --trace fails here, before the embed and shard spawns.
    trace = RequestTrace.load(args.trace) if args.trace else None
    config = scaffold.config_from_args(args, scale)
    meta = scaffold.engine_meta(args, "serve-sim", name)
    with scaffold.telemetry(args, meta, force=bool(args.slo)) as session:
        embedder = OMeGaEmbedder(config, **scaffold.observers(session))
        metrics = embedder.metrics
        tracer = session.tracer if session else None
        stream = session.stream if session else None

        plan = scaffold.load_fault_plan(
            session, args.faults, _synthesized_plan(args)
        )
        injector = FaultInjector(plan, metrics) if plan is not None else None
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
                stream=stream,
            )
        else:
            backend = EmbeddingBackend(
                embedder, edges, n_nodes, faults=injector, metrics=metrics
            )
        try:
            warmup_s = backend.warm_up()
            per_node = backend.compute_cost(1)
            if trace is None:
                trace = RequestTrace.synthesize(
                    seed=args.trace_seed,
                    n_requests=args.requests,
                    per_node_cost_s=per_node,
                    load=args.load,
                )
            if args.save_trace:
                trace.save(args.save_trace)
                print(f"request trace written to {args.save_trace}")

            # Calibrate the time-based policy knobs to the mean
            # interactive request (the class with the tight deadlines).
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
                tracer=tracer,
                faults=injector,
                stream=stream,
            )
            report = server.run_trace(trace)
            if args.shards:
                shard_info = backend.shard_summary()
        finally:
            if args.shards:
                backend.close()
        summary = report.summary()
        health = server.healthz()

        rows = _summary_rows(summary, health, warmup_s)
        if shard_info is not None:
            rows += _shard_rows(shard_info)
        print(
            format_table(
                ["metric", "value", ""],
                [[label, str(value), ""] for label, value in rows],
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
        slo_ok = scaffold.gate_slo(args, session)
    return 0 if report.balanced and health["healthy"] and slo_ok else 1
