"""Unit tests for the WoFP prefetcher (§III-C)."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WorkloadBalancedAllocator, WorkloadPrefetcher
from repro.core.wofp import DisabledPrefetchPlan, PrefetchPlan
from repro.formats import edges_to_csdb
from repro.graphs import rmat_edges


@pytest.fixture
def partitions(skewed_csdb):
    return WorkloadBalancedAllocator().allocate(skewed_csdb, 4)


class TestTypeSelection:
    def test_eta_threshold(self, skewed_csdb, partitions):
        """W/Rows >= |V| * eta selects the frequency prefetcher."""
        partition = partitions[0]
        mean_nnz_per_row = partition.nnz_count / partition.n_rows
        eta_low = mean_nnz_per_row / skewed_csdb.n_cols / 2
        eta_high = mean_nnz_per_row / skewed_csdb.n_cols * 2
        assert WorkloadPrefetcher(eta=eta_low).selects_frequency(
            skewed_csdb, partition
        )
        assert not WorkloadPrefetcher(eta=eta_high).selects_frequency(
            skewed_csdb, partition
        )

    def test_dense_head_partition_prefers_frequency(
        self, skewed_csdb, partitions
    ):
        """CSDB sorts dense rows first: partition 0 has the highest mean
        nnz/row, so with an in-between eta it picks frequency while the
        sparse tail picks degree."""
        per_row = [p.nnz_count / max(p.n_rows, 1) for p in partitions]
        assert per_row[0] == max(per_row)

    def test_plan_kinds(self, skewed_csdb, partitions):
        prefetcher = WorkloadPrefetcher(eta=0.05, sigma=0.1)
        kinds = {
            prefetcher.plan(skewed_csdb, p).kind for p in partitions
        }
        assert kinds <= {"frequency", "degree"}


class TestPlans:
    def test_capacity_sigma(self, skewed_csdb, partitions):
        sigma = 0.1
        prefetcher = WorkloadPrefetcher(sigma=sigma)
        for p in partitions:
            plan = prefetcher.plan(skewed_csdb, p)
            cols = skewed_csdb.col_list[p.nnz_start : p.nnz_end]
            distinct = len(np.unique(cols))
            assert plan.capacity <= min(int(p.nnz_count * sigma) + 1, distinct)

    def test_hit_fraction_measured_exactly(self, skewed_csdb, partitions):
        prefetcher = WorkloadPrefetcher(sigma=0.2)
        for p in partitions:
            plan = prefetcher.plan(skewed_csdb, p)
            cols = skewed_csdb.col_list[p.nnz_start : p.nnz_end]
            hot = set(plan.hot_columns.tolist())
            hits = sum(1 for c in cols if int(c) in hot)
            assert plan.hit_fraction == pytest.approx(hits / len(cols))

    def test_frequency_beats_degree_on_hits(self, skewed_csdb, partitions):
        """The dynamic prefetcher is at least as precise as the static."""
        p = partitions[0]
        freq = WorkloadPrefetcher(eta=1e-9, sigma=0.1).plan(skewed_csdb, p)
        deg = WorkloadPrefetcher(eta=1e9, sigma=0.1).plan(skewed_csdb, p)
        assert freq.kind == "frequency" and deg.kind == "degree"
        assert freq.hit_fraction >= deg.hit_fraction

    def test_degree_hits_close_to_frequency_on_powerlaw(
        self, skewed_csdb, partitions
    ):
        """In-degree is a good static proxy on power-law graphs — the
        paper's justification for the cheap degree-based prefetcher."""
        p = partitions[-1]
        freq = WorkloadPrefetcher(eta=1e-9, sigma=0.2).plan(skewed_csdb, p)
        deg = WorkloadPrefetcher(eta=1e9, sigma=0.2).plan(skewed_csdb, p)
        assert deg.hit_fraction > 0.5 * freq.hit_fraction

    def test_hit_fraction_monotone_in_sigma(self, skewed_csdb, partitions):
        p = partitions[1]
        hits = [
            WorkloadPrefetcher(sigma=s).plan(skewed_csdb, p).hit_fraction
            for s in (0.05, 0.2, 0.5)
        ]
        assert hits[0] <= hits[1] <= hits[2]

    def test_sigma_one_hits_everything(self, skewed_csdb, partitions):
        plan = WorkloadPrefetcher(sigma=1.0).plan(skewed_csdb, partitions[2])
        assert plan.hit_fraction == pytest.approx(1.0)

    def test_maintenance_cost_frequency_higher(self, skewed_csdb, partitions):
        p = partitions[0]
        freq = WorkloadPrefetcher(eta=1e-9, sigma=0.1).plan(skewed_csdb, p)
        deg = WorkloadPrefetcher(eta=1e9, sigma=0.1).plan(skewed_csdb, p)
        assert freq.maintenance_ops > deg.maintenance_ops

    def test_empty_partition(self, skewed_csdb):
        from repro.core.eata import AllocatorContext

        ctx = AllocatorContext(skewed_csdb)
        (empty,) = ctx.partitions([skewed_csdb.n_rows] * 2)
        plan = WorkloadPrefetcher().plan(skewed_csdb, empty)
        assert plan.capacity == 0
        assert plan.hit_fraction == 0.0

    def test_pinned_bytes(self, skewed_csdb, partitions):
        plan = WorkloadPrefetcher(sigma=0.1).plan(skewed_csdb, partitions[0])
        assert plan.pinned_bytes(dense_cols=16) == plan.capacity * 16 * 8

    def test_precomputed_col_degrees_equivalent(self, skewed_csdb, partitions):
        prefetcher = WorkloadPrefetcher(eta=1e9, sigma=0.1)
        degrees = skewed_csdb.col_degrees()
        p = partitions[2]
        a = prefetcher.plan(skewed_csdb, p)
        b = prefetcher.plan(skewed_csdb, p, col_degrees=degrees)
        assert np.array_equal(a.hot_columns, b.hot_columns)


class TestHistogramEqualsSortedUnique:
    """``plan`` counts columns with a histogram; the sort-based
    ``np.unique`` formulation it replaced must give the same plan."""

    @staticmethod
    def _unique_plan(prefetcher, matrix, partition):
        w = partition.nnz_count
        reserved = max(int(w * prefetcher.sigma), 1)
        cols = matrix.col_list[partition.nnz_start : partition.nnz_end]
        distinct, counts = np.unique(cols, return_counts=True)
        capacity = min(reserved, len(distinct))
        if prefetcher.selects_frequency(matrix, partition):
            return prefetcher._frequency_plan(
                distinct, counts, capacity, reserved, w
            )
        return prefetcher._degree_plan(
            distinct, counts, matrix.col_degrees(), capacity, reserved, w
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        scale=st.integers(5, 8),
        n_threads=st.integers(1, 8),
        kind=st.sampled_from(["frequency", "degree"]),
        sigma=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    )
    def test_plan_fields_identical(self, seed, scale, n_threads, kind, sigma):
        matrix = edges_to_csdb(
            rmat_edges(scale, edge_factor=6.0, seed=seed), 1 << scale
        )
        eta = 1e-9 if kind == "frequency" else 1e9
        prefetcher = WorkloadPrefetcher(eta=eta, sigma=sigma)
        for partition in WorkloadBalancedAllocator().allocate(
            matrix, n_threads
        ):
            if partition.nnz_count == 0:
                continue
            got = prefetcher.plan(matrix, partition)
            want = self._unique_plan(prefetcher, matrix, partition)
            assert got.kind == kind
            for field in fields(PrefetchPlan):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                else:
                    assert a == b, field.name


class TestDisabledPlan:
    def test_disabled_is_inert(self):
        plan = DisabledPrefetchPlan()
        assert plan.hit_fraction == 0.0
        assert plan.pinned_bytes(64) == 0
        assert plan.capacity == 0


class TestValidation:
    def test_invalid_eta(self):
        with pytest.raises(ValueError, match="eta"):
            WorkloadPrefetcher(eta=0.0)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            WorkloadPrefetcher(sigma=1.5)
