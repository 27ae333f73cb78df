"""Differential oracle for the shard tier's simulated seconds.

A shard repair, a background refresh and a backend warm-up used to bill
running totals (the host's recovery total, its persistence domain, the
backend's warm-up total) that callers read before and after each call
and subtracted.  Each of those calls now returns the seconds it
charges.  The fixture ``shard_ledger_oracle.json`` beside this file was
generated by the code before that change: for supervised sharded runs
(three kills of one shard with and without a replica, the three
:meth:`~repro.faults.FaultPlan.random_resilience` scenarios, and a
refresh run with both a cadence and a staleness bound) every
incident's shard, reason, action, lost versions, backoff (by
``float.hex``) and sequence, the backend's ``shard_summary()``, the
cold warm-up's seconds and the ``checkpoint.sim_seconds`` counter must
be equal.

Two kinds of number are not compared with the fixture: each incident's
``recovery_s`` and the refresh total.  A difference of running sums
only approximated them; they must equal the charges recomputed here
from the cost model — a promotion's hedge penalty, a restart's PM
sequential read of the rows it replays, a reshard's two genesis
checkpoints of its new hosts, and each refresh's WAL append (two
flush + fence pairs).

Regenerate only when the simulated numbers are meant to move::

    PYTHONPATH=src python tests/test_shard_ledger_oracle.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import OMeGaConfig, OMeGaEmbedder
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.graphs import chung_lu_edges
from repro.memsim.costmodel import CostModel
from repro.memsim.devices import AccessPattern, Locality, Operation, pm_spec
from repro.memsim.persistence import CACHE_LINE_BYTES, FENCE_SECONDS
from repro.obs.metrics import MetricsRegistry
from repro.serve.sharded import ShardedEmbeddingBackend
from repro.shard import EmbeddingShardManager, PartialResultError
from repro.shard.host import HEDGE_SIM_PENALTY_S, ShardHost
from repro.shard.store import ShardPolicy
from repro.shard.supervisor import SupervisorPolicy

FIXTURE = Path(__file__).with_name("shard_ledger_oracle.json")
N_NODES = 240
DIM = 8
SEED = 3

#: Three kills of shard 0, each repaired before the next.
_CRASH3 = FaultPlan(
    events=tuple(
        FaultEvent("shard_crash", "shard.0", count=at) for at in (3, 9, 15)
    )
)


def _resilience(scenario):
    return FaultPlan.random_resilience(
        SEED, scenario, n_shards=4, max_lookup=24
    )


#: name -> (fleet, fault plan, drive options).
CASES = {
    "crash/replicas=0": (dict(n_shards=2), _CRASH3, dict(steps=20)),
    "crash/replicas=1": (
        dict(n_shards=2, n_replicas=1), _CRASH3, dict(steps=20)
    ),
    "resilience/promotion": (
        dict(n_replicas=1, checkpoint_interval=6, staleness_bound=4),
        _resilience("promotion"),
        dict(steps=32),
    ),
    "resilience/corruption": (
        dict(),
        _resilience("corruption"),
        dict(steps=32, checkpoint_every=9),
    ),
    "resilience/reshard": (
        dict(n_replicas=1, checkpoint_interval=6, staleness_bound=4),
        _resilience("reshard"),
        dict(steps=32, skew_shard=0, reshard_imbalance=1.3),
    ),
    "refresh": (
        dict(n_shards=2, checkpoint_interval=5, staleness_bound=3),
        None,
        dict(steps=30, update_every=2),
    ),
}


def _drive(
    backend,
    steps,
    skew_shard=None,
    checkpoint_every=0,
    update_every=1,
    reshard_imbalance=0.0,
):
    """Updates beside lookups, one supervision sweep after each lookup."""
    shards = backend.shards
    rng = np.random.default_rng(SEED)
    for step in range(steps):
        if step % update_every == 0:
            ids = rng.integers(0, N_NODES, size=4)
            shards.apply_update(ids, rng.standard_normal((len(ids), DIM)))
        if checkpoint_every and step % checkpoint_every == 0:
            shards.checkpoint_all()
        if skew_shard is not None and rng.random() < 0.8:
            lo, hi = shards.routing.ranges[
                min(skew_shard, shards.routing.n_shards - 1)
            ]
            ids = rng.integers(lo, hi, size=16)
        else:
            ids = rng.integers(0, N_NODES, size=16)
        try:
            shards.lookup(ids)
        except PartialResultError:
            pass
        backend.supervisor.check()


def _journal_meta(host):
    """The meta a checkpoint of ``host`` journals now."""
    return {
        "version": host.version,
        "row_start": host.row_start,
        "row_end": host.row_end,
        "n_rows": host.n_rows,
    }


class _Spy:
    """Records what each restart replays and what each catch-up and
    each warming host's genesis checkpoint journal."""

    def __init__(self):
        self.restart_rows: list[int] = []
        self.catch_ups: list[dict] = []
        self.warm_starts: list[dict] = []
        self._restart = ShardHost.restart
        self._catch_up = ShardHost.catch_up
        self._start = ShardHost.start

    def __enter__(self):
        spy = self

        def start(host, checkpoint=True):
            # A reshard's new hosts go by shard id -1 until the swap.
            if host.shard_id == -1 and checkpoint:
                spy.warm_starts.append(_journal_meta(host))
            return spy._start(host, checkpoint)

        def restart(host):
            out = spy._restart(host)
            spy.restart_rows.append(host.n_rows)
            return out

        def catch_up(host, rows, version):
            out = spy._catch_up(host, rows, version)
            spy.catch_ups.append(_journal_meta(host))
            return out

        ShardHost.restart = restart
        ShardHost.catch_up = catch_up
        ShardHost.start = start
        return self

    def __exit__(self, *exc):
        ShardHost.restart = self._restart
        ShardHost.catch_up = self._catch_up
        ShardHost.start = self._start


def run_case(name):
    """One case's pinned numbers, plus what the spy saw of its charges."""
    fleet, plan, drive = CASES[name]
    drive = dict(drive)
    imbalance = drive.pop("reshard_imbalance", 0.0)
    metrics = MetricsRegistry()
    embedder = OMeGaEmbedder(
        OMeGaConfig(n_threads=2, dim=DIM), metrics=metrics
    )
    edges = chung_lu_edges(N_NODES, 2000, seed=SEED)
    with _Spy() as spy, ShardedEmbeddingBackend(
        embedder,
        edges,
        N_NODES,
        shard_policy=ShardPolicy(**fleet),
        supervisor_policy=SupervisorPolicy(
            heartbeat_timeout_s=30.0,
            reshard_imbalance=imbalance,
            reshard_min_lookups=12,
        ),
        faults=FaultInjector(plan, metrics) if plan is not None else None,
        metrics=metrics,
    ) as backend:
        warmup = backend.warm_up()
        warm_again = backend.warm_up()
        _drive(backend, **drive)
        summary = backend.shard_summary()
        incidents = backend.supervisor.incidents
    refresh = summary.pop("refresh_sim_seconds")
    recovery = [entry.pop("recovery_s") for entry in summary["incidents"]]
    assert recovery == [i.recovery_s for i in incidents]
    pinned = {
        "warmup_s": float(warmup).hex(),
        "checkpoint_sim_seconds": float(
            metrics.value("checkpoint.sim_seconds")
        ).hex(),
        "incidents": [
            [
                i.shard_id,
                i.reason,
                i.action,
                i.lost_versions,
                float(i.backoff_s).hex(),
                i.seq,
            ]
            for i in incidents
        ],
        "summary": summary,
        # The values the change replaced: kept to count what moved,
        # never compared.
        "recovery_s": [float(value).hex() for value in recovery],
        "refresh_sim_seconds": float(refresh).hex(),
    }
    seen = {
        "warm_again": warm_again,
        "recovery_s": recovery,
        "refresh_sim_seconds": refresh,
        "restart_rows": spy.restart_rows,
        "catch_ups": spy.catch_ups,
        "warm_starts": spy.warm_starts,
    }
    return pinned, seen


# -- the charges, recomputed from the cost model ----------------------------

_PM = pm_spec()
_COST = CostModel()


def _pm_seconds(operation, nbytes):
    return _COST.access_time(
        _PM, operation, AccessPattern.SEQUENTIAL, Locality.LOCAL, float(nbytes)
    )


def _append_seconds(payload_bytes):
    """A WAL append: flush + fence of the payload, then of the commit
    record."""

    def flush(nbytes):
        lines = -(-nbytes // CACHE_LINE_BYTES)
        return _pm_seconds(Operation.WRITE, lines * CACHE_LINE_BYTES)

    payload = flush(payload_bytes) + FENCE_SECONDS
    return payload + (flush(8.0) + FENCE_SECONDS)


def _refresh_seconds(meta):
    payload = float(meta["n_rows"] * DIM * 8)
    payload += float(len(json.dumps(meta, sort_keys=True)))
    return _append_seconds(payload)


def expected_recovery(incidents, restart_rows, warm_starts):
    rows = iter(restart_rows)
    starts = iter(warm_starts)
    charges = []
    for _shard, _reason, action, *_ in incidents:
        if action == "promote":
            charges.append(HEDGE_SIM_PENALTY_S)
        elif action == "restart":
            charges.append(_pm_seconds(Operation.READ, next(rows) * DIM * 8))
        elif action == "reshard":
            # The two new hosts' genesis checkpoints, in start order.
            charges.append(
                _refresh_seconds(next(starts)) + _refresh_seconds(next(starts))
            )
        else:
            charges.append(0.0)
    assert next(rows, None) is None
    assert next(starts, None) is None
    return charges


def expected_refresh(catch_ups):
    total = 0.0
    for meta in catch_ups:
        total += _refresh_seconds(meta)
    return total


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.usefixtures("no_shard_leftovers")
@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_parent(name, expected):
    pinned, seen = run_case(name)
    # Compared as the fixture stores it: through JSON.
    pinned = json.loads(json.dumps(pinned))
    parent = expected[name]
    for key in ("warmup_s", "checkpoint_sim_seconds", "incidents", "summary"):
        assert pinned[key] == parent[key], key
    # A warm backend charges nothing for a second warm-up.
    assert seen["warm_again"] == 0.0
    assert seen["recovery_s"] == expected_recovery(
        pinned["incidents"], seen["restart_rows"], seen["warm_starts"]
    )
    assert seen["refresh_sim_seconds"] == expected_refresh(seen["catch_ups"])


@pytest.mark.usefixtures("no_shard_leftovers")
def test_begin_split_returns_both_genesis_checkpoints():
    table = np.random.default_rng(SEED).standard_normal((N_NODES, DIM))
    with _Spy() as spy, EmbeddingShardManager(
        table, policy=ShardPolicy(n_shards=2)
    ) as manager:
        manager.apply_update(np.array([1]), np.ones((1, DIM)))
        seconds = manager.begin_split(0)
    assert [meta["version"] for meta in spy.warm_starts] == [1, 1]
    assert seconds == sum(map(_refresh_seconds, spy.warm_starts)) > 0.0


def test_the_cases_exercise_every_charge(expected):
    """Promotions, restarts and refreshes all occur, so each recomputed
    charge is checked against real calls."""
    actions = {
        incident[2]
        for case in expected.values()
        for incident in case["incidents"]
    }
    assert {"promote", "restart", "reshard"} <= actions
    assert all(
        expected[name]["summary"]["bg_checkpoints"] > 0
        for name in ("refresh", "resilience/promotion", "resilience/reshard")
    )
    assert expected["resilience/corruption"]["summary"]["corrupt_checkpoints"]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {name: run_case(name)[0] for name in sorted(CASES)},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
