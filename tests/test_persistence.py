"""Unit tests for the App-direct persistence facilities (§II-B)."""

import numpy as np
import pytest

from repro.memsim import pm_spec
from repro.memsim.persistence import (
    CrashInjected,
    PersistenceDomain,
    ShadowCommit,
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


class TestShadowCommit:
    def test_commit_and_recover(self, domain, rng):
        store = ShadowCommit(domain)
        data = rng.standard_normal((10, 4))
        seq = store.commit(data)
        assert seq == 1
        assert np.array_equal(store.recover(), data)

    def test_recover_before_any_commit(self, domain):
        assert ShadowCommit(domain).recover() is None

    def test_versions_alternate_buffers(self, domain, rng):
        store = ShadowCommit(domain)
        first = rng.standard_normal((5, 2))
        second = rng.standard_normal((5, 2))
        store.commit(first)
        store.commit(second)
        assert np.array_equal(store.recover(), second)
        assert store.committed_sequence == 2

    def test_crash_preserves_previous_version(self, domain, rng):
        store = ShadowCommit(domain)
        safe = rng.standard_normal((8, 3))
        store.commit(safe)
        with pytest.raises(CrashInjected):
            store.commit(rng.standard_normal((8, 3)), crash=True)
        # Recovery sees the pre-crash version, untouched.
        assert np.array_equal(store.recover(), safe)
        assert store.committed_sequence == 1

    def test_crash_on_first_commit_recovers_nothing(self, domain, rng):
        store = ShadowCommit(domain)
        with pytest.raises(CrashInjected):
            store.commit(rng.standard_normal((4, 2)), crash=True)
        assert store.recover() is None

    def test_commit_copies_data(self, domain):
        store = ShadowCommit(domain)
        data = np.ones((3, 3))
        store.commit(data)
        data[:] = 0.0
        assert np.all(store.recover() == 1.0)

    def test_commit_charges_flush_and_fences(self, domain, rng):
        store = ShadowCommit(domain)
        store.commit(rng.standard_normal((100, 8)))
        assert domain.fences == 2  # data fence + commit-record fence
        assert domain.sim_seconds > 0


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
        store.clear()
        assert store.last() is None
        assert store.stages == []
