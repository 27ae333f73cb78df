"""Online-resilience chaos: staleness, promotion vs WAL, storms.

Four experiments against the sharded store at the manager level (so
every fault coordinate is an exact lookup sequence number):

- **staleness** — live write traffic with the background checkpointer
  on: the worst ``table_version - checkpoint_version`` any lookup
  observes must stay at or below ``ShardPolicy.staleness_bound``, and
  the ``staleness_bound`` SLO kind must pass over the exported
  ``shard.staleness_max`` gauge.
- **failover** — the same seeded primary kill through two fleets: with
  a warm replica the supervisor *promotes* (zero WAL replay, zero lost
  versions); without one it *restarts* from the WAL checkpoint.  The
  promotion's simulated downtime must be strictly below the replay's —
  the table is sized so one shard's checkpoint is ~5 MB, where a PM
  sequential read genuinely dominates the coordination penalty.
- **storm** — checkpoint corruption (corrupt + torn) followed by a kill
  of the same shard while skewed traffic drives an online split:
  recovery walks back to the newest *verified* checkpoint (quarantining
  the damaged one), every row served is provably *some* historical
  version of the table (never garbage), and availability stays >= 99%
  through the reshard + corruption storm.
- **chaos matrix** — ``RESILIENCE_SEED`` / ``RESILIENCE_SCENARIO``
  select a :meth:`~repro.faults.FaultPlan.random_resilience` plan (the
  CI matrix axes: promotion / reshard / corruption); every scenario
  must hold availability, serve no garbage, and converge bit-identically
  to the fault-free table after catch-up.

The run streams its telemetry to
``benchmarks/results/online_resilience.telemetry.jsonl`` — the file the CI
``resilience-chaos`` matrix uploads (with the failing seed) on failure.
"""

import os

import numpy as np
from common import (  # noqa: F401
    run_once,
    telemetry_path,
    telemetry_session,
    write_report,
)

from repro.bench import format_table
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.obs import MetricsRegistry
from repro.obs.observatory.manifest import git_sha
from repro.obs.observatory.trend import (
    DEFAULT_TRAJECTORY,
    read_points,
    write_points,
)
from repro.obs.observatory.slo import SLOObjective, SLOSpec, evaluate_slo
from repro.shard import (
    EmbeddingShardManager,
    PartialResultError,
    ShardPolicy,
    ShardSupervisor,
    SupervisorPolicy,
)

SUITE = "bench_online_resilience"
N_SHARDS = 4
SEED = 7
AVAILABILITY_TARGET = 0.99

#: Small fleet for the staleness / storm / chaos arms.
N_NODES = 240
DIM = 8
CHECKPOINT_INTERVAL = 6
STALENESS_BOUND = 3

#: Failover arm: one shard's rows span ~5 MB, so the WAL restart's PM
#: sequential replay costs more simulated time than the promotion's
#: coordination penalty — the regime the comparison is honest in.
FAILOVER_NODES = 80_000
FAILOVER_DIM = 32
CRASHED_SHARD = 2
CRASH_AT_LOOKUP = 9

#: Storm coordinates: two media faults damage shard 1's newest WAL
#: record *after* the periodic checkpoint at lookup 6, then the kill at
#: lookup 9 forces a verified walk-back past the quarantined record.
DAMAGED_SHARD = 1

#: Per-scenario fleet shape for the seeded chaos matrix.
SCENARIO_CONFIG = {
    "promotion": dict(
        replicas=1, interval=6, bound=4, imbalance=0.0, skew=None,
        checkpoint_every=0,
    ),
    "reshard": dict(
        replicas=1, interval=6, bound=4, imbalance=1.3, skew=0,
        checkpoint_every=0,
    ),
    "corruption": dict(
        replicas=0, interval=0, bound=0, imbalance=0.0, skew=None,
        checkpoint_every=3,
    ),
}


def _manager(n_nodes, dim, policy, plan=None, metrics=None, stream=None):
    metrics = metrics if metrics is not None else MetricsRegistry()
    table = np.random.default_rng(SEED).standard_normal((n_nodes, dim))
    faults = FaultInjector(plan, metrics) if plan is not None else None
    return EmbeddingShardManager(
        table, policy=policy, faults=faults, metrics=metrics, stream=stream
    )


def _verify_rows(rows, ids, history):
    """Every returned row must be *some* historical version of its node.

    Stale reads are allowed (bounded staleness is the contract); rows
    matching no snapshot would mean corruption leaked into a result.
    """
    stack = np.stack([snapshot[ids] for snapshot in history])
    match = np.all(stack == rows[None], axis=2).any(axis=0)
    assert bool(match.all()), (
        f"{int((~match).sum())} rows match no historical table version"
    )


def _drive(
    manager,
    supervisor,
    n_lookups,
    *,
    rng,
    batch=16,
    skew_shard=None,
    checkpoint_every=0,
    verify=True,
):
    """Live traffic: one table update before every scatter-gather.

    ``skew_shard`` concentrates 80% of lookups on one shard's range
    (the load imbalance that triggers an elastic reshard);
    ``checkpoint_every`` cuts periodic durable checkpoints (the record
    media faults damage); ``verify`` checks every served row against
    the full version history — the never-garbage property.
    """
    n_nodes = len(manager.table)
    dim = manager.table.shape[1]
    history = [manager.table.copy()] if verify else None
    served = failed = stale_rows = 0
    for i in range(n_lookups):
        ids = rng.integers(0, n_nodes, size=4)
        manager.apply_update(ids, rng.standard_normal((len(ids), dim)))
        if verify:
            history.append(manager.table.copy())
        if checkpoint_every and i % checkpoint_every == 0:
            manager.checkpoint_all()
        if (
            skew_shard is not None
            and hasattr(manager.routing, "ranges")
            and rng.random() < 0.8
        ):
            shard = min(skew_shard, manager.routing.n_shards - 1)
            lo, hi = manager.routing.ranges[shard]
            lookup_ids = rng.integers(lo, hi, size=batch)
        else:
            lookup_ids = rng.integers(0, n_nodes, size=batch)
        try:
            result = manager.lookup(lookup_ids)
        except PartialResultError:
            failed += 1
        else:
            served += 1
            stale_rows += result.stale_rows
            if verify:
                _verify_rows(result.rows, lookup_ids, history)
        if supervisor is not None:
            supervisor.check()
    return {
        "served": served,
        "failed": failed,
        "availability": served / max(served + failed, 1),
        "stale_rows": stale_rows,
    }


def _converged(manager):
    """Catch every shard up; a full gather must then equal the table."""
    for host in list(manager.hosts):
        manager.catch_up(host.shard_id)
    result = manager.lookup(np.arange(len(manager.table)))
    return bool(
        np.array_equal(result.rows, manager.table) and result.stale_rows == 0
    )


def _staleness_arm(stream=None):
    metrics = MetricsRegistry()
    policy = ShardPolicy(
        n_shards=N_SHARDS,
        checkpoint_interval=CHECKPOINT_INTERVAL,
        staleness_bound=STALENESS_BOUND,
    )
    manager = _manager(N_NODES, DIM, policy, metrics=metrics, stream=stream)
    with manager:
        stats = _drive(manager, None, 48, rng=np.random.default_rng(11))
        refresher = manager.refresher
        spec = SLOSpec(
            name="online-resilience",
            objectives=(
                SLOObjective(
                    name="bounded-staleness",
                    kind="staleness_bound",
                    target=float(STALENESS_BOUND),
                ),
            ),
        )
        slo = evaluate_slo(metrics.to_records(), spec)
        converged = _converged(manager)
    return {
        **stats,
        "bg_checkpoints": refresher.bg_checkpoints,
        "staleness_max": refresher.max_observed_staleness,
        "refresh_sim_s": refresher.sim_refresh_seconds,
        "slo_ok": slo.ok,
        "converged": converged,
    }


def _failover_arm(n_replicas, stream=None):
    metrics = MetricsRegistry()
    plan = FaultPlan(
        events=(
            FaultEvent(
                "shard_crash",
                f"shard.{CRASHED_SHARD}",
                count=CRASH_AT_LOOKUP,
            ),
        ),
        seed=SEED,
    )
    policy = ShardPolicy(n_shards=N_SHARDS, n_replicas=n_replicas)
    manager = _manager(
        FAILOVER_NODES,
        FAILOVER_DIM,
        policy,
        plan=plan,
        metrics=metrics,
        stream=stream,
    )
    with manager:
        supervisor = ShardSupervisor(manager, metrics=metrics)
        supervisor.wait_heartbeats()
        stats = _drive(
            manager,
            supervisor,
            16,
            rng=np.random.default_rng(13),
            verify=False,
        )
        repairs = [
            i
            for i in supervisor.incidents
            if i.action in ("promote", "restart")
        ]
        assert repairs, "the injected kill was never repaired"
        restarts = sum(host.restarts for host in manager.hosts)
        promotions = sum(host.promotions for host in manager.hosts)
        converged = _converged(manager)
    return {
        **stats,
        "restarts": restarts,
        "promotions": promotions,
        "recovery_s": max(i.recovery_s for i in repairs),
        "lost_versions": max(i.lost_versions for i in repairs),
        "converged": converged,
    }


def _storm_arm(stream=None):
    metrics = MetricsRegistry()
    plan = FaultPlan(
        events=(
            FaultEvent(
                "checkpoint_corrupt", f"shard.{DAMAGED_SHARD}", count=6
            ),
            FaultEvent(
                "checkpoint_torn", f"shard.{DAMAGED_SHARD}", count=7
            ),
            FaultEvent("shard_crash", f"shard.{DAMAGED_SHARD}", count=9),
        ),
        seed=SEED,
    )
    policy = ShardPolicy(n_shards=N_SHARDS)
    manager = _manager(
        N_NODES, DIM, policy, plan=plan, metrics=metrics, stream=stream
    )
    with manager:
        supervisor = ShardSupervisor(
            manager,
            SupervisorPolicy(reshard_imbalance=1.35, reshard_min_lookups=12),
            metrics=metrics,
        )
        supervisor.wait_heartbeats()
        stats = _drive(
            manager,
            supervisor,
            40,
            rng=np.random.default_rng(17),
            skew_shard=0,
            checkpoint_every=5,
        )
        restart_lost = [
            i.lost_versions
            for i in supervisor.incidents
            if i.action == "restart"
        ]
        result = {
            **stats,
            "quarantined": sum(host.quarantined for host in manager.hosts),
            "restarts": sum(host.restarts for host in manager.hosts),
            "abandoned": sum(1 for host in manager.hosts if host.abandoned),
            "lost_versions": max(restart_lost, default=0),
            "reshard_epoch": manager.reshard_epoch,
            "n_shards_final": manager.routing.n_shards,
            "resharded_ranges": int(
                metrics.value("shard.resharded_ranges")
            ),
            "converged": _converged(manager),
        }
    return result


def _chaos_arm(seed, scenario, stream=None):
    cfg = SCENARIO_CONFIG[scenario]
    metrics = MetricsRegistry()
    plan = FaultPlan.random_resilience(
        seed, scenario, n_shards=N_SHARDS, max_lookup=24
    )
    policy = ShardPolicy(
        n_shards=N_SHARDS,
        n_replicas=cfg["replicas"],
        checkpoint_interval=cfg["interval"],
        staleness_bound=cfg["bound"],
    )
    manager = _manager(
        N_NODES, DIM, policy, plan=plan, metrics=metrics, stream=stream
    )
    with manager:
        supervisor = ShardSupervisor(
            manager,
            SupervisorPolicy(
                reshard_imbalance=cfg["imbalance"], reshard_min_lookups=12
            ),
            metrics=metrics,
        )
        supervisor.wait_heartbeats()
        stats = _drive(
            manager,
            supervisor,
            32,
            rng=np.random.default_rng(seed),
            skew_shard=cfg["skew"],
            checkpoint_every=cfg["checkpoint_every"],
        )
        result = {
            **stats,
            "seed": seed,
            "scenario": scenario,
            "plan_events": len(plan.events),
            "promotions": sum(host.promotions for host in manager.hosts),
            "restarts": sum(host.restarts for host in manager.hosts),
            "quarantined": sum(host.quarantined for host in manager.hosts),
            "abandoned": sum(1 for host in manager.hosts if host.abandoned),
            "reshard_epoch": manager.reshard_epoch,
            "converged": _converged(manager),
        }
    return result


def _experiment():
    seed = int(os.environ.get("RESILIENCE_SEED", "3"))
    scenario = os.environ.get("RESILIENCE_SCENARIO", "promotion")
    session = telemetry_session(
        "online_resilience", seed=seed, scenario=scenario
    )
    session.stream_to(telemetry_path("online_resilience"))
    stream = session.stream

    results = {
        "staleness": _staleness_arm(stream=stream),
        "promotion": _failover_arm(1, stream=stream),
        "wal": _failover_arm(0, stream=stream),
        "storm": _storm_arm(stream=stream),
        "chaos": _chaos_arm(seed, scenario, stream=stream),
    }
    for arm, payload in results.items():
        session.event("resilience_arm", arm=arm, **payload)
    session.close_stream()
    return results


def record_sample(path, sha, arms, seed, scenario):
    """Add one run's per-arm points to the trajectory at ``path``, as the
    sample ``{"seed", "scenario", "arms"}``: the chaos arm's
    ``RESILIENCE_SEED`` and ``RESILIENCE_SCENARIO`` say which plan the
    counts come from.  The sample goes to the ``samples`` of this
    suite's entry for ``sha``, or to a new entry holding that one
    sample.  Reruns of one commit add samples, not entries; every other
    element of the file is written back as read."""
    sample = {"seed": seed, "scenario": scenario, "arms": arms}
    points = read_points(path)
    for point in points:
        if (isinstance(point, dict) and point.get("suite") == SUITE
                and point.get("git_sha") == sha):
            point.setdefault("samples", []).append(sample)
            break
    else:
        points.append({
            "suite": SUITE, "git_sha": sha, "n_shards": N_SHARDS,
            "samples": [sample],
        })
    write_points(path, points)


def test_online_resilience(run_once):
    results = run_once(_experiment)
    stale = results["staleness"]
    promo = results["promotion"]
    wal = results["wal"]
    storm = results["storm"]
    chaos = results["chaos"]

    def row(label, arm):
        return [
            label,
            f"{arm['availability'] * 100:.1f}%",
            str(arm["stale_rows"]),
            str(arm.get("promotions", 0)),
            str(arm.get("restarts", 0)),
            str(arm.get("quarantined", 0)),
            (
                f"{arm['recovery_s'] * 1e3:.3f} ms"
                if "recovery_s" in arm
                else "-"
            ),
            str(arm["converged"]),
        ]

    table = format_table(
        [
            "arm", "availability", "stale rows", "promotions", "restarts",
            "quarantined", "recovery", "converged",
        ],
        [
            row("staleness", stale),
            row("promotion", promo),
            row("wal-replay", wal),
            row("storm", storm),
            row(f"chaos:{chaos['scenario']}@{chaos['seed']}", chaos),
        ],
        title=(
            f"Online resilience — {N_SHARDS} shards; staleness bound"
            f" {STALENESS_BOUND}, kill at lookup {CRASH_AT_LOOKUP},"
            f" corrupt+torn+kill storm, seeded chaos matrix"
        ),
    )
    write_report("online_resilience", table)

    record_sample(
        DEFAULT_TRAJECTORY,
        git_sha(),
        [
            {
                "arm": label,
                "availability": arm["availability"],
                "stale_rows": arm["stale_rows"],
                "promotions": arm.get("promotions", 0),
                "restarts": arm.get("restarts", 0),
                "recovery_s": arm.get("recovery_s", 0.0),
            }
            for label, arm in results.items()
        ],
        chaos["seed"],
        chaos["scenario"],
    )

    # Staleness: the background checkpointer bounds version lag under
    # live writes, and the SLO kind agrees.
    assert stale["failed"] == 0
    assert stale["bg_checkpoints"] > 0, "background refresh never ran"
    assert stale["staleness_max"] <= STALENESS_BOUND, (
        f"observed staleness {stale['staleness_max']}"
        f" beyond bound {STALENESS_BOUND}"
    )
    assert stale["slo_ok"], "staleness_bound SLO violated"
    assert stale["converged"]

    # Failover: promotion repairs with zero WAL replay and zero lost
    # versions, and its simulated downtime is strictly below the
    # WAL-replay arm's.
    assert promo["promotions"] >= 1 and promo["restarts"] == 0, (
        "replica arm fell back to WAL replay"
    )
    assert promo["lost_versions"] == 0
    assert wal["restarts"] >= 1 and wal["lost_versions"] > 0, (
        "WAL arm never replayed a checkpoint"
    )
    assert promo["recovery_s"] < wal["recovery_s"], (
        f"promotion downtime {promo['recovery_s']:.3e}s not below"
        f" WAL replay {wal['recovery_s']:.3e}s"
    )
    assert promo["converged"] and wal["converged"]

    # Storm: corruption never produces wrong rows (every served row
    # matched a historical version inside _drive), recovery walked back
    # past the quarantined record, the online split landed, and
    # availability held.
    assert storm["availability"] >= AVAILABILITY_TARGET, (
        f"storm availability {storm['availability']:.3f}"
        f" below {AVAILABILITY_TARGET}"
    )
    assert storm["quarantined"] >= 1, "no damaged checkpoint quarantined"
    assert storm["restarts"] >= 1 and storm["lost_versions"] > 0
    assert storm["abandoned"] == 0
    # The split finishes at the sweep after it begins (the warming
    # heartbeats are awaited when it begins), so the count is fixed.
    assert storm["stale_rows"] == 32, (
        f"storm served {storm['stale_rows']} stale rows, expected 32"
    )
    assert storm["reshard_epoch"] >= 1, "the online split never finished"
    assert storm["n_shards_final"] > N_SHARDS
    assert storm["resharded_ranges"] >= 2
    assert storm["converged"]

    # Chaos matrix: whatever the seeded scenario injected, availability
    # held, nothing was abandoned, and the fleet converged bitwise.
    assert chaos["availability"] >= AVAILABILITY_TARGET, (
        f"chaos {chaos['scenario']}@{chaos['seed']} availability"
        f" {chaos['availability']:.3f} below {AVAILABILITY_TARGET}"
    )
    assert chaos["abandoned"] == 0
    assert chaos["converged"]
    if chaos["scenario"] == "promotion":
        assert chaos["promotions"] >= 1 and chaos["restarts"] == 0
    elif chaos["scenario"] == "reshard":
        assert chaos["reshard_epoch"] >= 1
    else:  # corruption
        assert chaos["restarts"] >= 1
