"""Unit tests for the from-scratch CSR matrix."""

import numpy as np
import pytest

from repro.formats import CSRMatrix


def dense_of(rows, cols, vals, shape):
    out = np.zeros(shape)
    for r, c, v in zip(rows, cols, vals):
        out[r, c] += v
    return out


class TestConstruction:
    def test_from_coo_basic(self):
        m = CSRMatrix.from_coo([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0], (3, 3))
        assert m.nnz == 3
        assert np.allclose(m.to_dense(), dense_of([0, 1, 2], [1, 2, 0], [1, 2, 3], (3, 3)))

    def test_from_coo_sums_duplicates(self):
        m = CSRMatrix.from_coo([0, 0], [1, 1], [2.0, 3.0], (2, 2))
        assert m.nnz == 1
        assert m.to_dense()[0, 1] == 5.0

    def test_from_coo_keeps_duplicates_when_disabled(self):
        m = CSRMatrix.from_coo(
            [0, 0], [1, 1], [2.0, 3.0], (2, 2), sum_duplicates=False
        )
        assert m.nnz == 2
        assert m.to_dense()[0, 1] == 5.0

    def test_empty_matrix(self):
        m = CSRMatrix.from_coo([], [], [], (4, 5))
        assert m.nnz == 0
        assert m.shape == (4, 5)
        assert np.allclose(m.to_dense(), 0.0)

    def test_rejects_row_out_of_range(self):
        with pytest.raises(ValueError, match="row index"):
            CSRMatrix.from_coo([5], [0], [1.0], (3, 3))

    def test_rejects_col_out_of_range(self):
        with pytest.raises(ValueError, match="column index"):
            CSRMatrix.from_coo([0], [9], [1.0], (3, 3))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            CSRMatrix.from_coo([0, 1], [0], [1.0], (3, 3))

    def test_rejects_data_that_is_not_1d(self):
        with pytest.raises(ValueError, match=r"indices \(1,\) and data \(1, 3\) must be 1-D"):
            CSRMatrix(np.array([0, 1]), np.array([0]), np.ones((1, 3)), (1, 1))
        with pytest.raises(ValueError, match=r"1-D.*\(2, 1\)"):
            CSRMatrix.from_coo([0, 1], [1, 0], np.ones((2, 1)), (2, 2))

    def test_rejects_bad_indptr(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRMatrix(np.array([0, 2]), np.array([0]), np.array([1.0]), (1, 1))


class TestAccessors:
    def test_row_access(self, paper_csr):
        cols, vals = paper_csr.row(1)
        assert sorted(cols.tolist()) == [0, 3, 4, 6]
        assert np.all(vals == 1.0)

    def test_row_out_of_range(self, paper_csr):
        with pytest.raises(IndexError):
            paper_csr.row(7)

    def test_degrees(self, paper_csr):
        degrees = paper_csr.row_degrees()
        assert degrees.sum() == paper_csr.nnz
        assert degrees[0] == 4 and degrees[1] == 4

    def test_col_degrees_symmetric_graph(self, paper_csr):
        assert np.array_equal(paper_csr.col_degrees(), paper_csr.row_degrees())

    def test_index_bytes_is_order_v(self, paper_csr):
        assert paper_csr.index_bytes() >= 8 * (paper_csr.n_rows + 1)


class TestAlgebra:
    def test_spmm_matches_dense(self, skewed_csr, rng):
        b = rng.standard_normal((skewed_csr.n_cols, 5))
        assert np.allclose(skewed_csr.spmm(b), skewed_csr.to_dense() @ b)

    def test_spmm_vector_input(self, paper_csr, rng):
        v = rng.standard_normal(7)
        out = paper_csr.spmm(v)
        assert out.shape == (7, 1)
        assert np.allclose(out.ravel(), paper_csr.to_dense() @ v)

    def test_spmm_dimension_mismatch(self, paper_csr, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            paper_csr.spmm(rng.standard_normal((5, 3)))
