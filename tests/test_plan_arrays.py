"""EaTA and WoFP planning, array at a time — pinned against the scalar forms.

``AllocatorContext.fields`` computes every partition's nnz bounds,
entropy, Z(H) and W_sca from the prefix arrays in one pass, and the RR,
WaTA and EaTA splits find all their boundaries with one ``searchsorted``;
``WorkloadPrefetcher`` ranks columns with a stable sort on a narrow key
type.  The per-boundary scalar code they replaced is kept verbatim below
as the oracle: every field must agree to the bit, over degree sequences
with empty rows, a single row and more threads than rows.  The one
place a vectorised form could round differently, ``np.log`` over an
array against ``np.log`` of one integer, is checked on its own.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.eata import (
    AllocatorContext,
    EntropyAwareAllocator,
    RoundRobinAllocator,
    WorkloadBalancedAllocator,
    WorkloadPartition,
)
from repro.core.wofp import PrefetchPlan, WorkloadPrefetcher
from repro.formats import CSDBMatrix, edges_to_csdb
from repro.graphs import chung_lu_edges, rmat_edges

# -- the scalar forms, as they were ------------------------------------------


class ScalarContext:
    """``AllocatorContext`` before it answered ranges array at a time."""

    def __init__(self, matrix: CSDBMatrix) -> None:
        self.matrix = matrix
        self.n_rows = matrix.n_rows
        degrees = matrix.row_degrees().astype(np.float64)
        self.nnz_prefix = matrix.nnz_prefix()
        dlogd = np.zeros_like(degrees)
        positive = degrees > 0
        dlogd[positive] = degrees[positive] * np.log(degrees[positive])
        self.dlogd_prefix = np.concatenate([[0.0], np.cumsum(dlogd)])
        self.log_v = float(np.log(max(self.n_rows, 2)))
        self.total_nnz = int(self.nnz_prefix[-1])

    def workload(self, row_start: int, row_end: int) -> int:
        return int(self.nnz_prefix[row_end] - self.nnz_prefix[row_start])

    def entropy(self, row_start: int, row_end: int) -> float:
        w = self.workload(row_start, row_end)
        if w == 0:
            return 0.0
        dlogd = self.dlogd_prefix[row_end] - self.dlogd_prefix[row_start]
        return max(float(np.log(w) - dlogd / w), 0.0)

    def z_entropy(self, row_start: int, row_end: int) -> float:
        return min(self.entropy(row_start, row_end) / self.log_v, 1.0)

    def scatter(self, row_start: int, row_end: int) -> float:
        n_rows = row_end - row_start
        if n_rows == 0:
            return 0.0
        w = self.workload(row_start, row_end)
        return (w / n_rows) / max(self.matrix.n_cols, 1)

    def make_partition(
        self, thread_id: int, row_start: int, row_end: int
    ) -> WorkloadPartition:
        return WorkloadPartition(
            thread_id=thread_id,
            row_start=row_start,
            row_end=row_end,
            nnz_start=int(self.nnz_prefix[row_start]),
            nnz_end=int(self.nnz_prefix[row_end]),
            entropy=self.entropy(row_start, row_end),
            z_entropy=self.z_entropy(row_start, row_end),
            scatter=self.scatter(row_start, row_end),
        )


def scalar_rr(matrix, n_threads):
    ctx = ScalarContext(matrix)
    boundaries = np.linspace(0, ctx.n_rows, n_threads + 1).astype(np.int64)
    return [
        ctx.make_partition(t, int(boundaries[t]), int(boundaries[t + 1]))
        for t in range(n_threads)
    ]


def scalar_wata(matrix, n_threads):
    ctx = ScalarContext(matrix)
    targets = np.linspace(0, ctx.total_nnz, n_threads + 1)
    partitions = []
    row = 0
    for t in range(n_threads):
        if t == n_threads - 1:
            end = ctx.n_rows
        else:
            end = int(
                np.searchsorted(ctx.nnz_prefix, targets[t + 1], side="left")
            )
            end = min(max(end, row), ctx.n_rows)
        partitions.append(ctx.make_partition(t, row, end))
        row = end
    return partitions


def scalar_split_by_proxy(ctx, proxy, n_threads):
    proxy_prefix = np.concatenate([[0.0], np.cumsum(proxy)])
    targets = np.linspace(0.0, proxy_prefix[-1], n_threads + 1)
    partitions = []
    row = 0
    for t in range(n_threads):
        if t == n_threads - 1:
            end = ctx.n_rows
        else:
            end = int(
                np.searchsorted(proxy_prefix, targets[t + 1], side="left")
            )
            end = min(max(end, row), ctx.n_rows)
        partitions.append(ctx.make_partition(t, row, end))
        row = end
    return partitions


def scalar_eata(allocator, matrix, n_threads):
    ctx = ScalarContext(matrix)
    if n_threads == 1 or ctx.n_rows == 0:
        first = ctx.make_partition(0, 0, ctx.n_rows)
        rest = [
            ctx.make_partition(t, ctx.n_rows, ctx.n_rows)
            for t in range(1, n_threads)
        ]
        return [first, *rest]
    degrees = matrix.row_degrees().astype(np.float64)
    w_nominal = max(ctx.total_nnz / n_threads, 1.0)
    with np.errstate(divide="ignore"):
        z = np.log(np.maximum(w_nominal / np.maximum(degrees, 1.0), 1.0))
    z = np.minimum(z / ctx.log_v, 1.0)
    g = 1.0 - z + allocator.beta * z
    proxy = degrees / g + 2.0
    partitions = scalar_split_by_proxy(ctx, proxy, n_threads)
    for _ in range(2):
        rates = np.ones(ctx.n_rows)
        for p in partitions:
            if p.n_rows > 0:
                rates[p.row_start : p.row_end] = 1.0 / (
                    1.0 - p.z_entropy + allocator.beta * p.z_entropy
                )
        refined = degrees * rates + 2.0
        partitions = scalar_split_by_proxy(ctx, refined, n_threads)
    return partitions


def scalar_plan(prefetcher, matrix, partition):
    """``WorkloadPrefetcher.plan`` with its comparison-sorting ranks."""
    w = partition.nnz_count
    if w == 0:
        return PrefetchPlan(
            kind="degree",
            capacity=0,
            reserved_entries=0,
            hot_columns=np.empty(0, dtype=np.int64),
            hit_fraction=0.0,
            maintenance_ops=0.0,
        )
    reserved = max(int(w * prefetcher.sigma), 1)
    cols = matrix.col_list[partition.nnz_start : partition.nnz_end]
    histogram = np.bincount(cols, minlength=matrix.n_cols)
    distinct = np.flatnonzero(histogram)
    counts = histogram[distinct]
    capacity = min(reserved, len(distinct))
    if prefetcher.selects_frequency(matrix, partition):
        top = np.argsort(-counts, kind="stable")[:capacity]
        return PrefetchPlan(
            kind="frequency",
            capacity=capacity,
            reserved_entries=reserved,
            hot_columns=distinct[top],
            hit_fraction=float(counts[top].sum()) / w,
            maintenance_ops=w * prefetcher.frequency_ops_per_access
            + reserved * prefetcher.degree_ops_per_entry,
        )
    col_degrees = matrix.col_degrees()
    top = np.argsort(-col_degrees[distinct], kind="stable")[:capacity]
    return PrefetchPlan(
        kind="degree",
        capacity=capacity,
        reserved_entries=reserved,
        hot_columns=distinct[top],
        hit_fraction=float(counts[top].sum()) / w,
        maintenance_ops=reserved * prefetcher.degree_ops_per_entry,
    )


# -- inputs ------------------------------------------------------------------


def from_degrees(degrees: list[int], n_cols: int, seed: int) -> CSDBMatrix:
    """A matrix whose row ``i`` holds ``degrees[i]`` distinct random columns."""
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for row, degree in enumerate(degrees):
        picked = rng.choice(n_cols, size=min(degree, n_cols), replace=False)
        rows += [row] * len(picked)
        cols += picked.tolist()
    return CSDBMatrix.from_coo(
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.ones(len(rows)),
        (len(degrees), n_cols),
    )


matrices = st.builds(
    from_degrees,
    degrees=st.lists(
        st.one_of(st.just(0), st.integers(0, 4), st.integers(0, 80)),
        min_size=1,
        max_size=120,
    ),
    n_cols=st.integers(1, 96),
    seed=st.integers(0, 2**16),
)

SAMPLES = {
    "rmat10": lambda: edges_to_csdb(rmat_edges(10, edge_factor=16.0, seed=1), 1 << 10),
    "chung_lu": lambda: edges_to_csdb(
        chung_lu_edges(600, 4000, gamma=2.2, seed=7), 600
    ),
}


def bits(partitions: list[WorkloadPartition]) -> list[str]:
    """Every field of every partition, ``repr``-exact (-0.0 != 0.0)."""
    return [repr(p) for p in partitions]


def allocations(matrix, n_threads, beta):
    """(array-at-a-time, scalar) partitions per allocator."""
    eata = EntropyAwareAllocator(beta=beta)
    return {
        "RR": (RoundRobinAllocator().allocate(matrix, n_threads),
               scalar_rr(matrix, n_threads)),
        "WaTA": (WorkloadBalancedAllocator().allocate(matrix, n_threads),
                 scalar_wata(matrix, n_threads)),
        "EaTA": (eata.allocate(matrix, n_threads),
                 scalar_eata(eata, matrix, n_threads)),
    }


def assert_same_plans(matrix, partitions, prefetcher):
    for partition in partitions:
        plan = prefetcher.plan(matrix, partition)
        expected = scalar_plan(prefetcher, matrix, partition)
        assert plan.kind == expected.kind
        assert plan.capacity == expected.capacity
        assert plan.reserved_entries == expected.reserved_entries
        assert plan.hot_columns.dtype == expected.hot_columns.dtype
        assert plan.hot_columns.tobytes() == expected.hot_columns.tobytes()
        assert repr(plan.hit_fraction) == repr(expected.hit_fraction)
        assert repr(plan.maintenance_ops) == repr(expected.maintenance_ops)


# -- the oracles -------------------------------------------------------------


def test_array_log_rounds_like_scalar_log_on_every_workload_size():
    # A workload size is an int64 count; Eq. 3 takes its log once per
    # range, now over an array instead of one value at a time.
    sizes = np.concatenate([
        np.arange(1, 1 << 17),
        np.random.default_rng(0).integers(1 << 17, 1 << 40, size=20_000),
    ])
    vectorised = np.log(sizes)
    scalar = np.array([np.log(int(w)) for w in sizes])
    assert vectorised.tobytes() == scalar.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    matrix=matrices,
    n_threads=st.integers(1, 160),
    beta=st.sampled_from([0.05, 0.41, 1.0]),
)
def test_partitions_equal_the_scalar_split(matrix, n_threads, beta):
    for name, (arrays, scalar) in allocations(matrix, n_threads, beta).items():
        assert bits(arrays) == bits(scalar), name


@settings(max_examples=60, deadline=None)
@given(matrix=matrices, data=st.data())
def test_range_queries_equal_the_scalar_ones(matrix, data):
    ctx, reference = AllocatorContext(matrix), ScalarContext(matrix)
    assert ctx.dlogd_prefix.tobytes() == reference.dlogd_prefix.tobytes()
    n = matrix.n_rows
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted),
            min_size=1,
            max_size=40,
        )
    )
    starts, ends = (np.array(column) for column in zip(*pairs))
    nnz_start, nnz_end, entropy, z_entropy, scatter = ctx.fields(starts, ends)
    for i, (a, b) in enumerate(pairs):
        assert (nnz_start[i], nnz_end[i]) == (
            reference.nnz_prefix[a], reference.nnz_prefix[b]
        )
        assert repr(entropy[i].item()) == repr(reference.entropy(a, b))
        assert repr(z_entropy[i].item()) == repr(reference.z_entropy(a, b))
        assert repr(scatter[i].item()) == repr(reference.scatter(a, b))
        single = ctx.fields([a], [b])[2].item()
        assert repr(single) == repr(reference.entropy(a, b))


@settings(max_examples=80, deadline=None)
@given(
    matrix=matrices,
    n_threads=st.integers(1, 40),
    eta=st.sampled_from([1e-3, 0.01, 0.1, 1.0]),
    sigma=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
)
def test_prefetch_plans_equal_the_scalar_ranking(matrix, n_threads, eta, sigma):
    prefetcher = WorkloadPrefetcher(eta=eta, sigma=sigma)
    for arrays, _ in allocations(matrix, n_threads, 0.41).values():
        assert_same_plans(matrix, arrays, prefetcher)


@pytest.mark.parametrize("sample", sorted(SAMPLES))
@pytest.mark.parametrize("n_threads", (1, 8, 64))
def test_real_graphs_plan_like_the_scalar_forms(sample, n_threads):
    matrix = SAMPLES[sample]()
    for name, (arrays, scalar) in allocations(matrix, n_threads, 0.41).items():
        assert bits(arrays) == bits(scalar), name
        for eta in (0.001, 0.01, 0.5):
            assert_same_plans(matrix, arrays, WorkloadPrefetcher(eta=eta))
    kinds = {
        WorkloadPrefetcher(eta=eta).plan(matrix, p).kind
        for eta in (0.001, 0.5)
        for p in allocations(matrix, n_threads, 0.41)["EaTA"][0]
        if p.nnz_count
    }
    assert kinds == {"frequency", "degree"}
