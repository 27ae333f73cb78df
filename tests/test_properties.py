"""Property-based tests (hypothesis) on the core data structures.

Invariants covered:

- CSR/CSDB agree with each other and with dense algebra on arbitrary
  sparse matrices;
- CSDB round-trips (CSR -> CSDB -> CSR) preserve content;
- every thread allocator exactly tiles the row space on arbitrary inputs;
- Eq. 3 entropy respects its information-theoretic bounds;
- the Eq. 5 bandwidth interpolation is monotone;
- Eq. 9 partition counts always satisfy the peak-memory inequality;
- AUC is symmetric under score negation/swap.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EntropyAwareAllocator,
    RoundRobinAllocator,
    WorkloadBalancedAllocator,
)
from repro.core.asl import optimal_partitions
from repro.core.eata import AllocatorContext
from repro.eval.linkpred import ranking_auc
from repro.formats import CSDBMatrix, CSRMatrix
from repro.memsim import CostModel, Locality, pm_spec


@st.composite
def coo_matrices(draw):
    """Random small sparse matrices as COO triplets + shape."""
    n_rows = draw(st.integers(1, 24))
    n_cols = draw(st.integers(1, 24))
    nnz = draw(st.integers(0, 60))
    rows = draw(
        st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(-5, 5, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return (
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(vals, dtype=np.float64),
        (n_rows, n_cols),
    )


class TestFormatProperties:
    @given(coo_matrices())
    @settings(max_examples=60, deadline=None)
    def test_csdb_equals_csr(self, coo):
        rows, cols, vals, shape = coo
        csr = CSRMatrix.from_coo(rows, cols, vals, shape)
        csdb = CSDBMatrix.from_coo(rows, cols, vals, shape)
        assert np.allclose(csdb.to_dense(), csr.to_dense())

    @given(coo_matrices(), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_spmm_matches_dense_algebra(self, coo, d):
        rows, cols, vals, shape = coo
        csdb = CSDBMatrix.from_coo(rows, cols, vals, shape)
        rng = np.random.default_rng(0)
        b = rng.standard_normal((shape[1], d))
        assert np.allclose(csdb.spmm(b), csdb.to_dense() @ b, atol=1e-9)

    @given(coo_matrices())
    @settings(max_examples=40, deadline=None)
    def test_csdb_roundtrip(self, coo):
        rows, cols, vals, shape = coo
        csdb = CSDBMatrix.from_coo(rows, cols, vals, shape)
        back = CSDBMatrix.from_csr(csdb.to_csr())
        assert np.allclose(back.to_dense(), csdb.to_dense())

    @given(coo_matrices())
    @settings(max_examples=40, deadline=None)
    def test_transpose_involution(self, coo):
        rows, cols, vals, shape = coo
        csdb = CSDBMatrix.from_coo(rows, cols, vals, shape)
        assert np.allclose(
            csdb.transpose().transpose().to_dense(), csdb.to_dense()
        )

    @given(coo_matrices())
    @settings(max_examples=40, deadline=None)
    def test_degree_blocks_sorted_and_consistent(self, coo):
        rows, cols, vals, shape = coo
        csdb = CSDBMatrix.from_coo(rows, cols, vals, shape)
        degrees = csdb.row_degrees()
        assert np.all(np.diff(degrees) <= 0)
        assert degrees.sum() == csdb.nnz
        assert len(np.unique(degrees)) == csdb.n_blocks


class TestAllocatorProperties:
    @given(coo_matrices(), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_every_allocator_tiles_rows(self, coo, n_threads):
        rows, cols, vals, shape = coo
        csdb = CSDBMatrix.from_coo(rows, cols, vals, shape)
        for allocator in (
            RoundRobinAllocator(),
            WorkloadBalancedAllocator(),
            EntropyAwareAllocator(),
        ):
            partitions = allocator.allocate(csdb, n_threads)
            assert len(partitions) == n_threads
            assert partitions[0].row_start == 0
            assert partitions[-1].row_end == csdb.n_rows
            for a, b in zip(partitions, partitions[1:]):
                assert a.row_end == b.row_start
            assert sum(p.nnz_count for p in partitions) == csdb.nnz

    @given(coo_matrices())
    @settings(max_examples=40, deadline=None)
    def test_entropy_bounds(self, coo):
        rows, cols, vals, shape = coo
        csdb = CSDBMatrix.from_coo(rows, cols, vals, shape)
        ctx = AllocatorContext(csdb)
        _, _, h, z, _ = ctx.fields([0], [csdb.n_rows])
        rows_with_nnz = int((csdb.row_degrees() > 0).sum())
        assert 0.0 <= h[0] <= np.log(max(rows_with_nnz, 1)) + 1e-9
        assert 0.0 <= z[0] <= 1.0

    @given(coo_matrices(), st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_entropy_subadditive_ranges(self, coo, a, b):
        """Entropy of a range never exceeds log of its row count."""
        rows, cols, vals, shape = coo
        csdb = CSDBMatrix.from_coo(rows, cols, vals, shape)
        lo = min(a, b) % (csdb.n_rows + 1)
        hi = max(a, b) % (csdb.n_rows + 1)
        if lo > hi:
            lo, hi = hi, lo
        ctx = AllocatorContext(csdb)
        if hi > lo:
            entropy = ctx.fields([lo], [hi])[2][0]
            assert entropy <= np.log(hi - lo) + 1e-9


class TestCostModelProperties:
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(1, 32),
    )
    @settings(max_examples=60, deadline=None)
    def test_eq5_monotone_in_z(self, z1, z2, threads):
        model = CostModel()
        lo, hi = min(z1, z2), max(z1, z2)
        bw_lo = model.entropy_interpolated_bandwidth(
            pm_spec(), Locality.LOCAL, lo, threads
        )
        bw_hi = model.entropy_interpolated_bandwidth(
            pm_spec(), Locality.LOCAL, hi, threads
        )
        assert bw_hi <= bw_lo + 1e-6

    @given(st.floats(1.0, 1e9), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_access_time_positive_and_linearish(self, nbytes, z):
        model = CostModel()
        t = model.entropy_access_time(
            pm_spec(), Locality.LOCAL, nbytes, z
        )
        t2 = model.entropy_access_time(
            pm_spec(), Locality.LOCAL, 2 * nbytes, z
        )
        assert t > 0
        assert t2 == pytest.approx(2 * t, rel=1e-6)


class TestASLProperties:
    @given(
        st.integers(1, 10**6),
        st.integers(1, 256),
        st.floats(1.0, 1e12),
        st.floats(0.0, 1e10),
    )
    @settings(max_examples=80, deadline=None)
    def test_eq9_partitions_satisfy_peak_memory(
        self, n_nodes, dim, budget, sparse
    ):
        n = optimal_partitions(n_nodes, dim, budget, sparse)
        assert 1 <= n <= dim
        dense = dim * n_nodes * 8.0
        # If a non-degenerate split was chosen, Eq. 8 must hold:
        # 3*(dense/n) + sparse + 2*dense <= budget.
        if n < dim:
            assert 3 * dense / n + sparse + 2 * dense <= budget * (1 + 1e-9)


class TestAUCProperties:
    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=40),
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_auc_in_unit_interval_and_antisymmetric(self, pos, neg):
        pos, neg = np.array(pos), np.array(neg)
        auc = ranking_auc(pos, neg)
        assert 0.0 <= auc <= 1.0
        swapped = ranking_auc(neg, pos)
        assert auc + swapped == pytest.approx(1.0, abs=1e-9)
