"""Differential oracle for the default full-fidelity serve path.

The fixture ``serve_default_path_oracle.json`` beside this file was
generated by the code before the coordinator's per-request path was
reordered (bookkeeping moved between a shard lookup's publish and its
await, fixed costs paid once per request), and is never regenerated by
that change.  The other oracles cover crashes and streamed records; this
one pins a fault-free run in the benchmark's shape, small: a one-shard
``ShardedEmbeddingBackend`` with background checkpoints and no stream
replays three traces into one registry with row updates between them,
then makes one lookup of an out-of-range id, which must raise
``ValueError``.  Pinned after each step: every metric series by
``float.hex`` (none is left out: the registry holds no wall-clock
series, so the embed's are as seeded as the serve tier's), each
``ServeReport.summary()`` and the refresher's ``bg_checkpoints``,
``sim_refresh_seconds`` and ``max_observed_staleness``; at the end,
``shard_summary()``.

The update batches are sized so the failed lookup's own tick raises the
observed staleness: a refresher tick moved after the gather, or a
lookup counted after routing, reads differently.

Regenerate only when the simulated numbers are meant to move::

    PYTHONPATH=src python tests/test_serve_default_path_oracle.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import OMeGaConfig, OMeGaEmbedder
from repro.graphs import rmat_edges
from repro.memsim.clock import VirtualClock
from repro.obs.metrics import Histogram
from repro.serve import EmbeddingServer, RequestTrace, ServePolicy
from repro.serve.sharded import ShardedEmbeddingBackend
from repro.shard.store import ShardPolicy
from repro.shard.supervisor import SupervisorPolicy

FIXTURE = Path(__file__).with_name("serve_default_path_oracle.json")
SCALE = 8
DIM = 8
N_REQUESTS = 120
#: Row updates before the second and third traces, and before the
#: out-of-range lookup (more than either, so its tick sees a new worst).
UPDATE_BATCHES = (3, 3, 6)
UPDATE_ROWS = 16
#: The benchmark's wall-clock fault detectors, far beyond any stall.
STALL_S = 30.0


def _hex(value):
    return None if value is None else float(value).hex()


def _series(metrics):
    """Every series of ``metrics``: name, labels, kind and values."""
    pinned = []
    for m in metrics:
        labels = sorted((str(k), str(v)) for k, v in m.labels.items())
        if isinstance(m, Histogram):
            values = [m.count, _hex(m.sum), _hex(m.min if m.count else None),
                      _hex(m.max if m.count else None), list(m.bucket_counts)]
        else:
            values = [_hex(m.value)]
        pinned.append([m.name, labels, m.kind, values])
    return pinned


def _refresher(backend):
    refresher = backend.shards.refresher
    return {
        "bg_checkpoints": refresher.bg_checkpoints,
        "sim_refresh_seconds": _hex(refresher.sim_refresh_seconds),
        "max_observed_staleness": refresher.max_observed_staleness,
    }


def run_pinned():
    n_nodes = 1 << SCALE
    edges = rmat_edges(SCALE, 16.0, seed=3)
    rng = np.random.default_rng(11)
    steps = []
    with ShardedEmbeddingBackend(
        OMeGaEmbedder(OMeGaConfig(n_threads=2, dim=DIM, capacity_scale=512)),
        edges,
        n_nodes,
        shard_policy=ShardPolicy(
            n_shards=1, checkpoint_interval=40, lookup_deadline_s=STALL_S
        ),
        supervisor_policy=SupervisorPolicy(heartbeat_timeout_s=STALL_S),
    ) as backend:
        backend.warm_up()
        per_node = backend.compute_cost(1)
        policy = ServePolicy.calibrated(8.5 * per_node)
        shards = backend.shards
        for index, n_updates in enumerate(UPDATE_BATCHES):
            server = EmbeddingServer(
                backend, policy, clock=VirtualClock()
            )
            trace = RequestTrace.synthesize(
                index,
                n_requests=N_REQUESTS,
                per_node_cost_s=per_node,
                load=0.7,
            )
            report = server.run_trace(trace)
            steps.append(
                {
                    "summary": report.summary(),
                    "series": _series(backend.metrics),
                    "refresher": _refresher(backend),
                }
            )
            for _ in range(n_updates):
                ids = rng.choice(n_nodes, UPDATE_ROWS, replace=False)
                rows = rng.standard_normal((UPDATE_ROWS, DIM))
                shards.apply_update(ids, rows)
        with pytest.raises(ValueError):
            shards.lookup(np.array([n_nodes], dtype=np.int64))
        steps.append(
            {
                "series": _series(backend.metrics),
                "refresher": _refresher(backend),
            }
        )
        shard_summary = backend.shard_summary()
    return {"steps": steps, "shard_summary": shard_summary}


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def pinned():
    # Compared as the fixture stores it: through JSON.
    return json.loads(json.dumps(run_pinned()))


@pytest.mark.usefixtures("no_shard_leftovers")
def test_every_step_matches_parent(pinned, expected):
    assert len(pinned["steps"]) == len(expected["steps"])
    for got, want in zip(pinned["steps"], expected["steps"]):
        assert got.get("summary") == want.get("summary")
        assert got["refresher"] == want["refresher"]
        assert got["series"] == want["series"]


def test_shard_summary_matches_parent(pinned, expected):
    assert pinned["shard_summary"] == expected["shard_summary"]


def test_the_failed_lookup_ticks_and_counts(expected):
    """The fixture itself shows what the last step pins: the failed
    lookup is counted, and its tick saw a lag no earlier tick saw."""
    *_, before, after = expected["steps"]
    assert (
        after["refresher"]["max_observed_staleness"]
        > before["refresher"]["max_observed_staleness"]
    )
    (lookups_before,) = [
        values for name, _, _, values in before["series"]
        if name == "shard.lookups"
    ]
    (lookups_after,) = [
        values for name, _, _, values in after["series"]
        if name == "shard.lookups"
    ]
    assert float.fromhex(lookups_after[0]) == (
        float.fromhex(lookups_before[0]) + 1
    )


if __name__ == "__main__":
    pinned = json.dumps(run_pinned(), indent=1, sort_keys=True)
    FIXTURE.write_text(pinned + "\n")
