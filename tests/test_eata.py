"""Unit tests for thread allocation: RR, WaTA, EaTA (§III-B)."""

import numpy as np
import pytest

from repro.core import (
    AllocationScheme,
    AllocatorContext,
    EntropyAwareAllocator,
    RoundRobinAllocator,
    WorkloadBalancedAllocator,
    make_allocator,
)
from repro.core.eata import equal_share_bounds


def assert_covers_all_rows(partitions, matrix):
    """Partitions must tile [0, n_rows) contiguously, in thread order."""
    assert partitions[0].row_start == 0
    assert partitions[-1].row_end == matrix.n_rows
    for left, right in zip(partitions, partitions[1:]):
        assert left.row_end == right.row_start
    assert sum(p.nnz_count for p in partitions) == matrix.nnz


def range_fields(ctx, row_start, row_end):
    """``AllocatorContext.fields`` of one range, as Python scalars."""
    nnz_start, nnz_end, entropy, z_entropy, scatter = (
        column.item() for column in ctx.fields([row_start], [row_end])
    )
    return nnz_end - nnz_start, entropy, z_entropy, scatter


class TestAllocatorContext:
    def test_workload_totals(self, skewed_csdb):
        ctx = AllocatorContext(skewed_csdb)
        w = range_fields(ctx, 0, skewed_csdb.n_rows)[0]
        assert w == skewed_csdb.nnz

    def test_entropy_eq3_matches_direct_computation(self, skewed_csdb):
        ctx = AllocatorContext(skewed_csdb)
        a, b = 5, 105
        degrees = skewed_csdb.row_degrees()[a:b].astype(float)
        w = degrees.sum()
        p = degrees[degrees > 0] / w
        expected = float(-(p * np.log(p)).sum())
        assert range_fields(ctx, a, b)[1] == pytest.approx(expected)

    def test_entropy_bounds(self, skewed_csdb):
        ctx = AllocatorContext(skewed_csdb)
        n = skewed_csdb.n_rows
        _, h, z, _ = range_fields(ctx, 0, n)
        assert 0.0 <= h <= np.log(n)
        assert 0.0 <= z <= 1.0

    def test_entropy_single_row_is_zero(self, skewed_csdb):
        ctx = AllocatorContext(skewed_csdb)
        assert range_fields(ctx, 0, 1)[1] == 0.0

    def test_entropy_empty_range_is_zero(self, skewed_csdb):
        ctx = AllocatorContext(skewed_csdb)
        assert range_fields(ctx, 3, 3)[1] == 0.0

    def test_uniform_rows_entropy_is_log_count(self, paper_csdb):
        # The first block of the example graph has equal-degree rows.
        ctx = AllocatorContext(paper_csdb)
        block = int(paper_csdb.deg_ind[1])
        assert range_fields(ctx, 0, block)[1] == pytest.approx(np.log(block))

    def test_scatter_definition(self, skewed_csdb):
        ctx = AllocatorContext(skewed_csdb)
        w, _, _, scatter = range_fields(ctx, 0, 10)
        expected = (w / 10) / skewed_csdb.n_cols
        assert scatter == pytest.approx(expected)

    def test_equal_share_cut_halves_the_workload(self, skewed_csdb):
        ctx = AllocatorContext(skewed_csdb)
        end = int(equal_share_bounds(ctx.nnz_prefix, ctx.n_rows, 2)[1])
        half = range_fields(ctx, 0, end)[0]
        total = skewed_csdb.nnz
        assert abs(half - total / 2) <= skewed_csdb.row_degrees().max()


class TestRoundRobin:
    def test_equal_rows(self, skewed_csdb):
        partitions = RoundRobinAllocator().allocate(skewed_csdb, 4)
        assert_covers_all_rows(partitions, skewed_csdb)
        rows = [p.n_rows for p in partitions]
        assert max(rows) - min(rows) <= 1

    def test_unbalanced_nnz_on_skewed_graph(self, skewed_csdb):
        partitions = RoundRobinAllocator().allocate(skewed_csdb, 4)
        loads = [p.nnz_count for p in partitions]
        # Degree-sorted rows make RR chunks wildly unbalanced.
        assert max(loads) > 2 * min(loads)


class TestWaTA:
    def test_balanced_nnz(self, skewed_csdb):
        partitions = WorkloadBalancedAllocator().allocate(skewed_csdb, 4)
        assert_covers_all_rows(partitions, skewed_csdb)
        loads = [p.nnz_count for p in partitions]
        tolerance = skewed_csdb.row_degrees().max()
        target = skewed_csdb.nnz / 4
        assert all(abs(load - target) <= tolerance for load in loads)

    def test_more_threads_than_rows(self, paper_csdb):
        partitions = WorkloadBalancedAllocator().allocate(paper_csdb, 20)
        assert_covers_all_rows(partitions, paper_csdb)
        assert len(partitions) == 20


class TestEaTA:
    def test_covers_rows(self, skewed_csdb):
        partitions = EntropyAwareAllocator().allocate(skewed_csdb, 8)
        assert_covers_all_rows(partitions, skewed_csdb)
        assert len(partitions) == 8

    def test_single_thread(self, skewed_csdb):
        partitions = EntropyAwareAllocator().allocate(skewed_csdb, 1)
        assert len(partitions) == 1
        assert partitions[0].nnz_count == skewed_csdb.nnz

    def test_predicted_time_is_balanced(self, skewed_csdb):
        """EaTA equalizes deg/g(z) proxies, not raw nnz."""
        allocator = EntropyAwareAllocator(beta=0.2)
        partitions = allocator.allocate(skewed_csdb, 6)
        proxies = []
        for p in partitions:
            g = 1.0 - p.z_entropy + allocator.beta * p.z_entropy
            proxies.append(p.nnz_count / g)
        proxies = np.array(proxies)
        assert proxies.std() / proxies.mean() < 0.25

    def test_reduces_tail_versus_wata_under_entropy_cost(self, skewed_csdb):
        """Under the Eq. 5 cost model, EaTA's worst thread beats WaTA's."""
        beta = 0.2

        def cost(partition):
            g = 1.0 - partition.z_entropy + beta * partition.z_entropy
            return partition.nnz_count / g

        eata = EntropyAwareAllocator(beta=beta).allocate(skewed_csdb, 8)
        wata = WorkloadBalancedAllocator().allocate(skewed_csdb, 8)
        assert max(cost(p) for p in eata) < max(cost(p) for p in wata)

    def test_scattered_partitions_get_less_work(self, skewed_csdb):
        partitions = EntropyAwareAllocator(beta=0.2).allocate(skewed_csdb, 6)
        nonempty = [p for p in partitions if p.nnz_count > 0]
        low_z = min(nonempty, key=lambda p: p.z_entropy)
        high_z = max(nonempty, key=lambda p: p.z_entropy)
        if high_z.z_entropy - low_z.z_entropy > 0.2:
            assert high_z.nnz_count < low_z.nnz_count

    def test_invalid_beta(self):
        with pytest.raises(ValueError, match="beta"):
            EntropyAwareAllocator(beta=0.0)

    def test_invalid_threads(self, skewed_csdb):
        with pytest.raises(ValueError, match="n_threads"):
            EntropyAwareAllocator().allocate(skewed_csdb, 0)


class TestFactory:
    def test_make_allocator(self):
        assert isinstance(
            make_allocator(AllocationScheme.ROUND_ROBIN), RoundRobinAllocator
        )
        assert isinstance(
            make_allocator(AllocationScheme.WORKLOAD_BALANCED),
            WorkloadBalancedAllocator,
        )
        eata = make_allocator(AllocationScheme.ENTROPY_AWARE, beta=0.3)
        assert isinstance(eata, EntropyAwareAllocator)
        assert eata.beta == 0.3

    def test_make_allocator_from_string(self):
        assert isinstance(make_allocator("rr"), RoundRobinAllocator)


class TestPartitionProperties:
    def test_partition_fields(self, skewed_csdb):
        partitions = WorkloadBalancedAllocator().allocate(skewed_csdb, 4)
        prefix = skewed_csdb.nnz_prefix()
        for p in partitions:
            assert p.nnz_start == prefix[p.row_start]
            assert p.nnz_end == prefix[p.row_end]
            assert p.nnz_count == p.nnz_end - p.nnz_start
            assert p.n_rows == p.row_end - p.row_start
            assert 0.0 <= p.z_entropy <= 1.0

    def test_empty_partition_flag(self, paper_csdb):
        partitions = WorkloadBalancedAllocator().allocate(paper_csdb, 20)
        assert any(p.nnz_count == 0 and p.n_rows == 0 for p in partitions)
