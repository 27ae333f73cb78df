"""Unit tests for the CSDB format (§III-A), including the paper's example."""

import numpy as np
import pytest

from repro.formats import CSDBMatrix, CSRMatrix


class TestPaperExample:
    """The worked example of Fig. 5: |V|=7, |E|=11."""

    def test_block_structure(self, paper_csdb):
        # Degree sequence: two deg-4 nodes, four deg-3, one deg-2 (the
        # fixture graph); deg_list is strictly descending.
        assert np.all(np.diff(paper_csdb.deg_list) < 0)
        assert paper_csdb.deg_ind[0] == 0
        assert paper_csdb.deg_ind[-1] == 7
        block_sizes = np.diff(paper_csdb.deg_ind)
        assert int((block_sizes * paper_csdb.deg_list).sum()) == 22  # 2|E|

    def test_neighbors_of_v1(self, paper_csdb):
        cols, vals = paper_csdb.neighbors(1)
        assert sorted(cols.tolist()) == [0, 3, 4, 6]
        assert np.all(vals == 1.0)

    def test_neighbors_every_node_matches_csr(self, paper_csdb, paper_csr):
        for node in range(7):
            csdb_cols, _ = paper_csdb.neighbors(node)
            csr_cols, _ = paper_csr.row(node)
            assert sorted(csdb_cols.tolist()) == sorted(csr_cols.tolist())

    def test_row_ptr_eq1(self, paper_csdb):
        # Eq. 1: the pointer of each CSDB row equals the prefix sum of
        # preceding degrees.
        degrees = paper_csdb.row_degrees()
        expected = 0
        for row in range(paper_csdb.n_rows):
            assert paper_csdb.row_ptr(row) == expected
            expected += degrees[row]
        assert paper_csdb.row_ptr(paper_csdb.n_rows) == paper_csdb.nnz

    def test_index_is_compressed(self, paper_csdb, paper_csr):
        # O(|distinct degrees|) beats O(|V|) even on 7 nodes here.
        assert paper_csdb.index_bytes() < paper_csr.index_bytes()


class TestStructure:
    def test_from_csr_roundtrip(self, skewed_csr):
        csdb = CSDBMatrix.from_csr(skewed_csr)
        assert np.allclose(csdb.to_dense(), skewed_csr.to_dense())

    def test_to_csr_roundtrip(self, skewed_csdb):
        back = skewed_csdb.to_csr()
        assert np.allclose(back.to_dense(), skewed_csdb.to_dense())

    def test_perm_is_permutation(self, skewed_csdb):
        assert sorted(skewed_csdb.perm.tolist()) == list(
            range(skewed_csdb.n_rows)
        )

    def test_inv_perm(self, skewed_csdb):
        assert np.array_equal(
            skewed_csdb.perm[skewed_csdb.inv_perm],
            np.arange(skewed_csdb.n_rows),
        )

    def test_rows_sorted_by_descending_degree(self, skewed_csdb):
        degrees = skewed_csdb.row_degrees()
        assert np.all(np.diff(degrees) <= 0)

    def test_nnz_prefix(self, skewed_csdb):
        prefix = skewed_csdb.nnz_prefix()
        assert prefix[0] == 0
        assert prefix[-1] == skewed_csdb.nnz
        assert np.all(np.diff(prefix) == skewed_csdb.row_degrees())

    def test_block_of_row_bounds(self, paper_csdb):
        with pytest.raises(IndexError):
            paper_csdb.block_of_row(7)
        with pytest.raises(IndexError):
            paper_csdb.block_of_row(-1)

    def test_empty_matrix(self):
        empty = CSDBMatrix.from_coo([], [], [], (5, 5))
        assert empty.nnz == 0
        assert empty.n_blocks == 1  # the all-zero degree block
        assert np.allclose(empty.to_dense(), 0.0)

    def test_zero_degree_rows_present(self):
        # Node 3 has no edges: it must land in a trailing degree-0 block.
        m = CSDBMatrix.from_coo([0, 1], [1, 0], [1.0, 1.0], (4, 4))
        assert 0 in m.deg_list
        assert m.degree_of_row(m.n_rows - 1) == 0

    def test_validation_rejects_bad_deg_list(self):
        with pytest.raises(ValueError, match="descending"):
            CSDBMatrix(
                deg_list=[1, 2],
                deg_ind=[0, 1, 2],
                col_list=[0, 0, 1],
                nnz_list=[1.0, 1.0, 1.0],
                perm=[0, 1],
                shape=(2, 2),
            )

    def test_validation_rejects_inconsistent_nnz(self):
        with pytest.raises(ValueError, match="block structure"):
            CSDBMatrix(
                deg_list=[2],
                deg_ind=[0, 1],
                col_list=[0],
                nnz_list=[1.0],
                perm=[0],
                shape=(1, 2),
            )

    def test_validation_rejects_values_that_are_not_1d(self):
        # Accepted before, a (3, 1) nnz_list failed only at the first
        # multiply, inside scipy.
        with pytest.raises(ValueError, match=r"col_list \(3,\), nnz_list \(3, 1\): must be 1-D"):
            CSDBMatrix([1], [0, 3], [0, 1, 2], np.ones((3, 1)), [0, 1, 2], (3, 3))

    @pytest.mark.parametrize(
        "perm, match",
        (
            ([0, 0, 2], r"not a permutation of range\(3\): row 0 appears 2"),
            ([0, 5, 2], r"perm entry 5 out of range \[0, 3\)"),
            ([0, -1, 2], r"perm entry -1 out of range \[0, 3\)"),
        ),
    )
    def test_validation_rejects_a_perm_that_is_not_a_permutation(
        self, perm, match
    ):
        # A repeated row would leave another row's product unwritten; an
        # out-of-range one would fail only at the first multiply.
        with pytest.raises(ValueError, match=match):
            CSDBMatrix([1], [0, 3], [0, 1, 2], [1.0, 2.0, 3.0], perm, (3, 3))


class TestAlgebra:
    def test_spmm_matches_dense(self, skewed_csdb, rng):
        b = rng.standard_normal((skewed_csdb.n_cols, 6))
        assert np.allclose(skewed_csdb.spmm(b), skewed_csdb.to_dense() @ b)

    def test_spmm_chunked_matches_unchunked(self, skewed_csdb, rng):
        b = rng.standard_normal((skewed_csdb.n_cols, 4))
        n_rows = skewed_csdb.n_rows
        chunked = np.empty((n_rows, 4))
        for a in range(0, n_rows, 37):
            e = min(a + 37, n_rows)
            chunked[skewed_csdb.perm[a:e]] = skewed_csdb.spmm_rows(b, a, e)
        assert np.array_equal(chunked, skewed_csdb.spmm(b))

    def test_spmm_rows_partition_consistency(self, skewed_csdb, rng):
        b = rng.standard_normal((skewed_csdb.n_cols, 3))
        full = skewed_csdb.spmm(b)
        mid = skewed_csdb.n_rows // 3
        top = skewed_csdb.spmm_rows(b, 0, mid)
        bottom = skewed_csdb.spmm_rows(b, mid, skewed_csdb.n_rows)
        assert np.allclose(full[skewed_csdb.perm[:mid]], top)
        assert np.allclose(full[skewed_csdb.perm[mid:]], bottom)

    def test_spmm_rows_empty_range(self, skewed_csdb, rng):
        b = rng.standard_normal((skewed_csdb.n_cols, 3))
        out = skewed_csdb.spmm_rows(b, 5, 5)
        assert out.shape == (0, 3)

    def test_spmm_rows_invalid_range(self, skewed_csdb, rng):
        b = rng.standard_normal((skewed_csdb.n_cols, 3))
        with pytest.raises(ValueError, match="invalid row range"):
            skewed_csdb.spmm_rows(b, 5, 3)

    def test_spmm_vector(self, paper_csdb, rng):
        v = rng.standard_normal(7)
        assert np.allclose(paper_csdb.spmm(v), paper_csdb.to_dense() @ v)

    def test_spmv(self, paper_csdb, rng):
        v = rng.standard_normal(7)
        assert np.allclose(paper_csdb.spmv(v), paper_csdb.to_dense() @ v)

    def test_spmm_dimension_mismatch(self, paper_csdb, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            paper_csdb.spmm(rng.standard_normal((9, 2)))

    def test_transpose(self, skewed_csdb):
        assert np.allclose(
            skewed_csdb.transpose().to_dense(), skewed_csdb.to_dense().T
        )

    def test_transpose_rectangular(self):
        m = CSDBMatrix.from_coo([0, 0, 1], [2, 3, 0], [1.0, 2.0, 3.0], (2, 4))
        assert np.allclose(m.transpose().to_dense(), m.to_dense().T)

    def test_add(self, paper_csdb):
        assert np.allclose(
            (paper_csdb + paper_csdb).to_dense(), 2 * paper_csdb.to_dense()
        )

    def test_sub_to_zero(self, paper_csdb):
        difference = paper_csdb - paper_csdb
        assert np.allclose(difference.to_dense(), 0.0)
        assert difference.nnz == 0

    def test_add_shape_mismatch(self, paper_csdb):
        other = CSDBMatrix.from_coo([0], [0], [1.0], (3, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            paper_csdb + other

    def test_scale_preserves_structure(self, paper_csdb):
        scaled = paper_csdb.scale(3.0)
        assert np.array_equal(scaled.deg_list, paper_csdb.deg_list)
        assert np.array_equal(scaled.perm, paper_csdb.perm)
        assert np.allclose(scaled.to_dense(), 3 * paper_csdb.to_dense())

    def test_col_degrees(self, paper_csdb, paper_csr):
        assert np.array_equal(paper_csdb.col_degrees(), paper_csr.col_degrees())

    def test_weighted_matrix(self, rng):
        rows = rng.integers(0, 50, size=200)
        cols = rng.integers(0, 50, size=200)
        vals = rng.standard_normal(200)
        csdb = CSDBMatrix.from_coo(rows, cols, vals, (50, 50))
        csr = CSRMatrix.from_coo(rows, cols, vals, (50, 50))
        b = rng.standard_normal((50, 4))
        assert np.allclose(csdb.spmm(b), csr.spmm(b))


class TestBlockedKernel:
    """``spmm(verify=True)`` cross-checks the kernel against from-scratch CSR."""

    def test_verify_passes_against_scipy_csr(self, skewed_csdb, rng):
        b = rng.standard_normal((skewed_csdb.n_cols, 4))
        out = skewed_csdb.spmm(b, verify=True)
        assert np.allclose(out, skewed_csdb.to_dense() @ b)

    def test_verify_scales_its_tolerance_to_float32_values(
        self, skewed_csdb, rng
    ):
        values = rng.standard_normal(skewed_csdb.nnz).astype(np.float32)
        matrix = skewed_csdb.with_values(values)
        b = rng.standard_normal((matrix.n_cols, 4))
        out = matrix.spmm(b, verify=True)
        assert out.dtype == np.float32
        exact = matrix.to_dense() @ b.astype(np.float32).astype(np.float64)
        assert not np.array_equal(out, exact)  # float32 rounding shows
        assert np.allclose(out, exact, rtol=1e-5, atol=1e-5)

    def test_verify_raises_on_kernel_mismatch(
        self, skewed_csdb, rng, monkeypatch
    ):
        from repro.formats import KernelVerificationError

        b = rng.standard_normal((skewed_csdb.n_cols, 3))
        # Skew the CSR reference: verification must notice the blocked
        # kernel and the reference disagreeing.
        reference = skewed_csdb.to_csr()
        monkeypatch.setattr(
            skewed_csdb,
            "to_csr",
            lambda: CSRMatrix(
                reference.indptr,
                reference.indices,
                reference.data * 1.01,
                reference.shape,
            ),
        )
        with pytest.raises(KernelVerificationError, match="max abs error"):
            skewed_csdb.spmm(b, verify=True)


class TestInstanceCaches:
    def test_prefix_and_degree_caches_are_reused(self, skewed_csdb):
        assert skewed_csdb.row_degrees() is skewed_csdb.row_degrees()
        assert skewed_csdb.nnz_prefix() is skewed_csdb.nnz_prefix()
        assert skewed_csdb.col_degrees() is skewed_csdb.col_degrees()

    def test_cached_values_are_correct(self, skewed_csdb):
        degrees = skewed_csdb.row_degrees()
        prefix = skewed_csdb.nnz_prefix()
        assert np.array_equal(prefix, np.concatenate([[0], np.cumsum(degrees)]))

    def test_scale_inherits_pattern_caches(self, skewed_csdb):
        skewed_csdb.row_degrees()
        skewed_csdb.nnz_prefix()
        scaled = skewed_csdb.scale(2.0)
        assert scaled.row_degrees() is skewed_csdb.row_degrees()
        assert scaled.nnz_prefix() is skewed_csdb.nnz_prefix()

    def test_transpose_and_elementwise_get_fresh_caches(self, skewed_csdb):
        skewed_csdb.row_degrees()
        t = skewed_csdb.transpose()
        # The transpose's degrees must describe the transpose, not the
        # original (cache must not leak across structural ops).
        assert int(t.row_degrees().sum()) == t.nnz
        s = skewed_csdb + skewed_csdb
        assert int(s.row_degrees().sum()) == s.nnz


class TestSharedRoundtrip:
    def test_roundtrip_bitwise_and_zero_copy(self, skewed_csdb, rng):
        shared = skewed_csdb.to_shared()
        try:
            attached = CSDBMatrix.from_shared(shared.handle)
            for name in ("deg_list", "deg_ind", "col_list", "nnz_list", "perm"):
                assert np.array_equal(
                    getattr(attached, name), getattr(skewed_csdb, name)
                )
                # Views over the segment buffer, not copies.
                assert getattr(attached, name).base is not None
            b = rng.standard_normal((skewed_csdb.n_cols, 6))
            assert np.array_equal(attached.spmm(b), skewed_csdb.spmm(b))
        finally:
            shared.close()

    def test_close_unlinks_and_is_idempotent(self, paper_csdb):
        from multiprocessing import shared_memory

        shared = paper_csdb.to_shared()
        names = [spec.name for spec in shared.handle.specs]
        shared.close()
        shared.close()
        assert shared.closed
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_empty_matrix_roundtrip(self):
        empty = CSDBMatrix.from_coo([], [], [], (4, 4))
        shared = empty.to_shared()
        try:
            attached = CSDBMatrix.from_shared(shared.handle)
            assert attached.nnz == 0
            out = attached.spmm(np.ones((4, 2)))
            assert np.array_equal(out, np.zeros((4, 2)))
        finally:
            shared.close()
