"""Unit tests for the App-direct persistence facilities (§II-B)."""

import json

import numpy as np
import pytest

from repro.core import OMeGaConfig, OMeGaEmbedder
from repro.faults import FaultEvent, FaultInjector, FaultPlan, InjectedCrash
from repro.graphs import chung_lu_edges
from repro.memsim import (
    AccessPattern,
    CostModel,
    Locality,
    Operation,
    pm_spec,
)
from repro.memsim.persistence import (
    CACHE_LINE_BYTES,
    FENCE_SECONDS,
    CheckpointedEmbedder,
    CrashInjected,
    StageCheckpointStore,
)


def _persist(nbytes: float) -> float:
    """One CLWB of ``nbytes`` (whole cache lines) to PM, then one SFENCE."""
    lines = -(-nbytes // CACHE_LINE_BYTES)
    return (
        CostModel().access_time(
            pm_spec(),
            Operation.WRITE,
            AccessPattern.SEQUENTIAL,
            Locality.LOCAL,
            lines * CACHE_LINE_BYTES,
        )
        + FENCE_SECONDS
    )


@pytest.fixture
def store():
    return StageCheckpointStore()


def _pm_write(nbytes: float) -> float:
    """A sequential local PM write of ``nbytes``, with no fence."""
    return CostModel().access_time(
        pm_spec(),
        Operation.WRITE,
        AccessPattern.SEQUENTIAL,
        Locality.LOCAL,
        nbytes,
    )


class TestPersistenceDomain:
    """How the store prices reaching the PM persistence domain."""

    def test_fence_cost_and_count(self, store):
        # An empty record: a one-line "{}" payload and a one-line commit.
        seconds = store.append("graph_read", {}, {})
        assert store.fences == 2
        assert FENCE_SECONDS == 30e-9
        fences = seconds - 2 * _pm_write(CACHE_LINE_BYTES)
        assert fences == pytest.approx(2 * 30e-9)

    def test_flush_charges_pm_write_cost(self, store):
        payload = np.zeros(2**17)  # 1 MiB, a whole number of lines
        seconds = store.append("factorization", {"x": payload}, {})
        assert _pm_write(2**20) > 0
        assert seconds == pytest.approx(
            _pm_write(2**20 + CACHE_LINE_BYTES)
            + _pm_write(CACHE_LINE_BYTES)
            + 2 * FENCE_SECONDS
        )
        assert store.durable_bytes == 2**20 + 2 + 8


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
    def test_append_and_last(self, store, rng):
        first = rng.standard_normal((6, 4))
        store.append("graph_read", {}, {"read_seconds": 1.0})
        store.append("factorization", {"initial": first}, {"x": 2})
        record = store.last()
        assert record.sequence == 2
        assert record.stage == "factorization"
        assert np.array_equal(record.arrays["initial"], first)
        assert store.stages == ["graph_read", "factorization"]

    def test_append_copies_arrays(self, store):
        data = np.ones((3, 2))
        store.append("factorization", {"initial": data}, {})
        data[:] = 0.0
        assert np.all(store.last().arrays["initial"] == 1.0)

    def test_crash_loses_only_pending_record(self, store, rng):
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

    def test_append_charges_flush_and_fences(self, store, rng):
        initial = rng.standard_normal((50, 8))
        seconds = store.append("factorization", {"initial": initial}, {})
        assert store.fences == 2  # payload fence + commit-record fence
        # The payload (array + "{}" meta) and the 8-byte commit record.
        assert store.durable_bytes == initial.nbytes + 2 + 8
        assert seconds == _persist(initial.nbytes + 2) + _persist(8)

    def test_torn_append_bills_its_payload(self, store, rng):
        initial = rng.standard_normal((50, 8))
        with pytest.raises(CrashInjected) as err:
            store.append("factorization", {"initial": initial}, {}, crash=True)
        # The payload was flushed and fenced; the commit record never was.
        assert err.value.sim_seconds == _persist(initial.nbytes + 2)
        assert store.fences == 1
        assert store.durable_bytes == initial.nbytes + 2

    def test_last_verified_walks_back_and_quarantines(self, store, rng):
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

    def test_clear_truncates(self, store):
        store.append("graph_read", {}, {})
        assert store.clear() is None
        assert store.last() is None
        assert store.stages == []

    def test_clear_keeps_the_newest_commit_record(self, store):
        for stage in ("propagation", "graph_read") * 2:
            store.append(stage, {}, {})
        kept = store.clear()
        assert store.records == [kept]
        assert (kept.stage, kept.sequence) == ("propagation", 3)


class TestWalBill:
    """``checkpoint.sim_seconds`` is every append's flush + fence charges,
    a torn commit's payload included, recomputed from the cost model."""

    @pytest.fixture
    def appends(self, monkeypatch):
        """Each append's ``(payload_bytes, torn)``, in call order."""
        seen = []
        append = StageCheckpointStore.append

        def spy(self, stage, arrays, meta, crash=False):
            payload = sum(np.asarray(a).nbytes for a in arrays.values())
            payload += len(json.dumps(meta, sort_keys=True))
            seen.append((float(payload), crash))
            return append(self, stage, arrays, meta, crash=crash)

        monkeypatch.setattr(StageCheckpointStore, "append", spy)
        return seen

    @staticmethod
    def _bill(appends) -> float:
        """What ``_drive`` adds up over one attempt's appends."""
        seconds = 0.0
        for payload, torn in appends:
            charge = _persist(payload)
            seconds += charge if torn else charge + _persist(8.0)
        return seconds

    def test_resumed_run_bills_the_torn_commit(self, two_graphs, appends):
        checkpointed = _checkpointed()
        metrics = checkpointed.embedder.metrics
        with pytest.raises(CrashInjected):
            checkpointed.embed_with_checkpoints(
                *two_graphs[0], faults=_crash("factorization", "before_commit")
            )
        crashed = list(appends)
        assert [torn for _, torn in crashed] == [False, True]
        assert metrics.value("checkpoint.sim_seconds") == self._bill(crashed)
        del appends[:]
        result = checkpointed.resume()
        assert [torn for _, torn in appends] == [False, False]
        assert result.checkpoint_seconds == self._bill(appends)
        assert metrics.value("checkpoint.sim_seconds") == (
            self._bill(crashed) + self._bill(appends)
        )

    def test_unresumed_crash_is_billed(self, two_graphs, appends):
        checkpointed = _checkpointed()
        with pytest.raises(CrashInjected):
            checkpointed.run_to_completion(
                *two_graphs[0],
                faults=_crash("propagation", "before_commit"),
                resume=False,
            )
        assert [torn for _, torn in appends] == [False, False, True]
        assert checkpointed.embedder.metrics.value(
            "checkpoint.sim_seconds"
        ) == self._bill(appends)
