"""Unit tests for the App-direct persistence facilities (§II-B)."""

import numpy as np
import pytest

from repro.core import OMeGaConfig, OMeGaEmbedder
from repro.faults import FaultEvent, FaultInjector, FaultPlan, InjectedCrash
from repro.graphs import chung_lu_edges
from repro.memsim import pm_spec
from repro.memsim.persistence import (
    CheckpointedEmbedder,
    CrashInjected,
    PersistenceDomain,
    StageCheckpointStore,
)


@pytest.fixture
def domain():
    return PersistenceDomain(device=pm_spec())


class TestPersistenceDomain:
    def test_stores_are_not_durable_until_flushed(self, domain):
        domain.store(1000)
        assert not domain.all_durable
        assert domain.durable_bytes == 0.0
        domain.flush()
        assert domain.all_durable
        assert domain.durable_bytes == 1000

    def test_flush_charges_pm_write_cost(self, domain):
        domain.store(2**20)
        cost = domain.flush()
        assert cost > 0
        assert domain.sim_seconds == pytest.approx(cost)

    def test_empty_flush_is_free(self, domain):
        assert domain.flush() == 0.0

    def test_fence_cost_and_count(self, domain):
        domain.fence()
        domain.fence()
        assert domain.fences == 2
        assert domain.sim_seconds == pytest.approx(2 * 30e-9)

    def test_negative_store_rejected(self, domain):
        with pytest.raises(ValueError, match="nbytes"):
            domain.store(-1)


@pytest.fixture(scope="module")
def two_graphs():
    return (
        (chung_lu_edges(120, 700, seed=2), 120),
        (chung_lu_edges(100, 600, seed=4), 100),
    )


def _checkpointed():
    return CheckpointedEmbedder(
        OMeGaEmbedder(OMeGaConfig(n_threads=2, dim=8))
    )


def _crash(stage, phase="after_commit"):
    return FaultInjector(
        FaultPlan(events=(FaultEvent("crash", stage, phase=phase),))
    )


class TestRecoverEmbedding:
    """The ``propagation`` WAL record is the one durable embedding."""

    def test_commit_and_recover(self, two_graphs):
        checkpointed = _checkpointed()
        result = checkpointed.embed_with_checkpoints(*two_graphs[0])
        recovered = checkpointed.recover_embedding()
        assert np.array_equal(recovered, result.embedding)

    def test_recover_before_any_commit(self):
        assert _checkpointed().recover_embedding() is None

    def test_crash_preserves_previous_version(self, two_graphs):
        checkpointed = _checkpointed()
        safe = checkpointed.embed_with_checkpoints(*two_graphs[0])
        with pytest.raises(InjectedCrash):
            checkpointed.embed_with_checkpoints(
                *two_graphs[1], faults=_crash("propagation", "before_commit")
            )
        # Recovery sees the pre-crash version, untouched.
        assert np.array_equal(checkpointed.recover_embedding(), safe.embedding)

    def test_crash_on_first_commit_recovers_nothing(self, two_graphs):
        checkpointed = _checkpointed()
        with pytest.raises(InjectedCrash):
            checkpointed.embed_with_checkpoints(
                *two_graphs[0], faults=_crash("propagation", "before_commit")
            )
        assert checkpointed.recover_embedding() is None

    def test_recover_returns_a_copy(self, two_graphs):
        checkpointed = _checkpointed()
        result = checkpointed.embed_with_checkpoints(*two_graphs[0])
        expected = result.embedding.copy()
        result.embedding[:] = 0.0
        checkpointed.recover_embedding()[:] = 0.0
        assert np.array_equal(checkpointed.recover_embedding(), expected)
        # A run resumed from its commit record returns its own copy too.
        with pytest.raises(InjectedCrash):
            checkpointed.embed_with_checkpoints(
                *two_graphs[1], faults=_crash("propagation")
            )
        resumed = checkpointed.resume()
        expected = resumed.embedding.copy()
        resumed.embedding[:] = 0.0
        assert np.array_equal(checkpointed.recover_embedding(), expected)


class TestStageCheckpointStore:
    def test_append_and_last(self, domain, rng):
        store = StageCheckpointStore(domain)
        first = rng.standard_normal((6, 4))
        store.append("graph_read", {}, {"read_seconds": 1.0})
        seq = store.append("factorization", {"initial": first}, {"x": 2})
        assert seq == 2
        record = store.last()
        assert record.stage == "factorization"
        assert np.array_equal(record.arrays["initial"], first)
        assert store.stages == ["graph_read", "factorization"]

    def test_append_copies_arrays(self, domain):
        store = StageCheckpointStore(domain)
        data = np.ones((3, 2))
        store.append("factorization", {"initial": data}, {})
        data[:] = 0.0
        assert np.all(store.last().arrays["initial"] == 1.0)

    def test_crash_loses_only_pending_record(self, domain, rng):
        store = StageCheckpointStore(domain)
        store.append("graph_read", {}, {})
        with pytest.raises(CrashInjected) as err:
            store.append(
                "factorization",
                {"initial": rng.standard_normal((4, 2))},
                {},
                crash=True,
            )
        assert err.value.site == "factorization"
        assert err.value.phase == "before_commit"
        assert store.stages == ["graph_read"]

    def test_append_charges_flush_and_fences(self, domain, rng):
        store = StageCheckpointStore(domain)
        store.append(
            "factorization", {"initial": rng.standard_normal((50, 8))}, {}
        )
        assert domain.fences == 2  # payload fence + commit-record fence
        assert domain.sim_seconds > 0

    def test_last_verified_walks_back_and_quarantines(self, domain, rng):
        store = StageCheckpointStore(domain)
        assert store.last_verified() is None
        for version in range(3):
            store.append(
                "shard-0", {"rows": rng.standard_normal((8, 2))}, {"v": version}
            )
        assert store.last_verified().meta["v"] == 2
        store.damage_last("corrupt")
        dropped = []
        record = store.last_verified(dropped.append)
        assert record.meta["v"] == 1
        assert [r.meta["v"] for r in dropped] == [2]
        assert [r.meta["v"] for r in store.records] == [0, 1]
        # The only record left damaged too: nothing verifies.
        store.quarantine(store.records[0])
        store.damage_last("torn")
        assert store.last_verified(dropped.append) is None
        assert [r.meta["v"] for r in dropped] == [2, 1]
        assert store.records == []

    def test_clear_truncates(self, domain):
        store = StageCheckpointStore(domain)
        store.append("graph_read", {}, {})
        assert store.clear() is None
        assert store.last() is None
        assert store.stages == []

    def test_clear_keeps_the_newest_commit_record(self, domain):
        store = StageCheckpointStore(domain)
        for stage in ("propagation", "graph_read") * 2:
            store.append(stage, {}, {})
        kept = store.clear()
        assert store.records == [kept]
        assert (kept.stage, kept.sequence) == ("propagation", 3)
