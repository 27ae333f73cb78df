"""Shard-kill chaos: supervised recovery vs an unsupervised store.

Replay the same synthetic request trace against the same seeded fault
plan — one ``shard_crash`` killing 1 of 4 shard processes mid-serve —
through two sharded backends:

- **supervised** — a :class:`~repro.shard.ShardSupervisor` restarts the
  dead shard from its WAL checkpoint between requests, and the
  scatter-gather path hedges the failed gather to the stale checkpoint
  tier, so every request is served (some stale, none failed);
- **unsupervised** — no supervisor and no hedging: the first gather
  that touches the dead shard raises
  :class:`~repro.shard.ShardCrashError`, the server fails the request,
  and the shard's node range is lost for the rest of the trace.

The supervised arm must keep availability (served / submitted) at or
above 99% with zero unhandled exceptions; the unsupervised arm must
lose requests.  After the replay, the supervised store is caught up and
a full-table scatter-gather must be bit-identical to the backend's
freshly computed embedding — recovery converges, it does not drift.

The run streams its telemetry (``shard_event`` records interleaved
with ``serve_request`` events) to
``benchmarks/results/shard_recovery.telemetry.jsonl`` — the file the CI
``shard-chaos`` job uploads.
"""

import numpy as np
from common import (  # noqa: F401
    dataset,
    run_once,
    telemetry_path,
    telemetry_session,
    write_report,
)

from repro.bench import format_seconds, format_table
from repro.core import OMeGaConfig, OMeGaEmbedder
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.memsim.clock import VirtualClock
from repro.obs import MetricsRegistry
from repro.obs.observatory import append_trajectory_point
from repro.obs.observatory.manifest import git_sha
from repro.obs.observatory.perfgate import DEFAULT_TRAJECTORY
from repro.serve import EmbeddingServer, RequestTrace, ServePolicy
from repro.serve.sharded import ShardedEmbeddingBackend
from repro.shard import ShardPolicy, SupervisorPolicy

DIM = 16
N_THREADS = 8
N_SHARDS = 4
N_REQUESTS = 200
TRACE_SEED = 3
#: 1-based full-tier lookup at which the shard dies (mid-serve).
CRASH_AT_LOOKUP = 50
CRASHED_SHARD = 1
#: Mean node count of an interactive request (uniform 1..16).
MEAN_INTERACTIVE_NODES = 8.5
COMPLETED = ("served", "deadline_exceeded")
AVAILABILITY_TARGET = 0.99


def _plan() -> FaultPlan:
    return FaultPlan(
        events=(
            FaultEvent(
                kind="shard_crash",
                site=f"shard.{CRASHED_SHARD}",
                count=CRASH_AT_LOOKUP,
            ),
        ),
        seed=TRACE_SEED,
    )


def _run_arm(graph, supervised: bool, stream=None):
    metrics = MetricsRegistry()
    embedder = OMeGaEmbedder(
        OMeGaConfig(n_threads=N_THREADS, dim=DIM, capacity_scale=graph.scale),
        metrics=metrics,
    )
    injector = FaultInjector(_plan(), metrics)
    backend = ShardedEmbeddingBackend(
        embedder,
        graph.edges,
        graph.n_nodes,
        shard_policy=ShardPolicy(
            n_shards=N_SHARDS, hedge_enabled=supervised
        ),
        supervisor_policy=SupervisorPolicy() if supervised else None,
        faults=injector,
        metrics=metrics,
        stream=stream,
    )
    try:
        backend.warm_up()
        per_node = backend.compute_cost(1)
        # Light load with generous deadlines: the monolithic baseline
        # serves this trace 200/200 at full fidelity, so any
        # availability loss below is attributable to the shard crash.
        trace = RequestTrace.synthesize(
            seed=TRACE_SEED,
            n_requests=N_REQUESTS,
            per_node_cost_s=per_node,
            load=0.5,
            deadline_slack=60.0,
        )
        policy = ServePolicy.calibrated(per_node * MEAN_INTERACTIVE_NODES)
        server = EmbeddingServer(
            backend,
            policy,
            clock=VirtualClock(),
            metrics=metrics,
            stream=stream,
        )
        report = server.run_trace(trace)
        assert report.balanced, "accounting invariant broken"
        shard_info = backend.shard_summary()

        identical_after_catchup = None
        if supervised:
            # Recovery must converge: catch every shard up, then a
            # full-table gather must equal the freshly computed table.
            shards = backend.shards
            for host in shards.hosts:
                shards.catch_up(host.shard_id)
            result = shards.lookup(np.arange(shards.routing.n_nodes))
            identical_after_catchup = bool(
                np.array_equal(result.rows, shards.table)
                and result.stale_rows == 0
            )
        return report, metrics, shard_info, identical_after_catchup
    finally:
        backend.close()


def _experiment(graph):
    session = telemetry_session("shard_recovery", graph=graph.name)
    session.stream_to(telemetry_path("shard_recovery"))
    arms = {}
    for label, supervised in (("supervised", True), ("unsupervised", False)):
        stream = session.stream if supervised else None
        report, metrics, shard_info, identical = _run_arm(
            graph, supervised, stream=stream
        )
        arms[label] = {
            "report": report,
            "availability": report.served / max(report.submitted, 1),
            "p99_s": report.latency_percentile(99, COMPLETED),
            "unhandled": int(metrics.value("serve.unhandled_exceptions")),
            "stale_rows": int(metrics.value("shard.stale_rows")),
            "restarts": shard_info["restarts"],
            "hedged": shard_info["hedged_checkpoint"]
            + shard_info["hedged_replica"],
            "identical_after_catchup": identical,
        }
        session.event(
            "shard_recovery_arm",
            arm=label,
            restarts=shard_info["restarts"],
            incidents=shard_info["incidents"],
            availability=arms[label]["availability"],
            p99_s=arms[label]["p99_s"],
            unhandled=arms[label]["unhandled"],
            stale_rows=arms[label]["stale_rows"],
            identical_after_catchup=identical,
            **report.summary(),
        )
    session.close_stream()
    return arms


def test_shard_recovery(run_once):
    graph = dataset("PK")
    arms = run_once(lambda: _experiment(graph))
    sup, unsup = arms["supervised"], arms["unsupervised"]

    table = format_table(
        [
            "arm", "availability", "failed", "p99", "restarts",
            "stale rows", "hedged",
        ],
        [
            [
                label,
                f"{arm['availability'] * 100:.1f}%",
                str(arm["report"].failed),
                format_seconds(arm["p99_s"]),
                str(arm["restarts"]),
                str(arm["stale_rows"]),
                str(arm["hedged"]),
            ]
            for label, arm in arms.items()
        ],
        title=(
            f"Shard recovery on {graph.name} — {N_REQUESTS} requests,"
            f" {N_SHARDS} shards, shard {CRASHED_SHARD} killed at"
            f" lookup {CRASH_AT_LOOKUP}"
        ),
    )
    write_report("shard_recovery", table)

    append_trajectory_point(
        DEFAULT_TRAJECTORY,
        {
            "suite": "bench_shard_recovery",
            "git_sha": git_sha(),
            "graph": graph.name,
            "n_shards": N_SHARDS,
            "points": [
                {
                    "arm": label,
                    "availability": arm["availability"],
                    "p99_s": arm["p99_s"],
                    "failed": arm["report"].failed,
                    "restarts": arm["restarts"],
                    "stale_rows": arm["stale_rows"],
                }
                for label, arm in arms.items()
            ],
        },
    )

    # The supervised arm recovers: near-total availability, no unhandled
    # errors, the dead shard restarted, and recovery converges bitwise.
    assert sup["availability"] >= AVAILABILITY_TARGET, (
        f"supervised availability {sup['availability']:.3f}"
        f" below {AVAILABILITY_TARGET}"
    )
    assert sup["unhandled"] == 0
    assert sup["restarts"] >= 1, "the killed shard never restarted"
    assert sup["identical_after_catchup"] is True
    # The unsupervised arm pays for the same fault with lost requests.
    assert unsup["report"].failed > 0, (
        "unsupervised arm lost no requests — the fault never landed"
    )
    assert unsup["availability"] < sup["availability"]
