"""Unit tests for the ProNE model substrate (tSVD, Chebyshev, transforms)."""

import numpy as np
import pytest

from repro.formats import CSDBMatrix
from repro.prone import (
    add_identity,
    chebyshev_gaussian_filter,
    chebyshev_operator,
    prone_embed,
    prone_smf,
    randomized_tsvd,
    row_l1_normalize,
    smf_matrix,
)
from repro.prone.chebyshev import spmm_calls_for_order
from repro.prone.model import ProNEParams, densify_embedding, prone_propagate
from repro.prone.tsvd import embedding_from_factors


class TestLaplacianTransforms:
    def test_row_l1_normalize_rows_sum_to_one(self, skewed_csdb):
        normalized = row_l1_normalize(skewed_csdb)
        sums = normalized.to_dense().sum(axis=1)
        nonzero = skewed_csdb.to_dense().sum(axis=1) > 0
        assert np.allclose(sums[nonzero], 1.0)
        assert np.allclose(sums[~nonzero], 0.0)

    def test_row_l1_normalize_preserves_structure(self, skewed_csdb):
        normalized = row_l1_normalize(skewed_csdb)
        assert np.array_equal(normalized.perm, skewed_csdb.perm)
        assert np.array_equal(normalized.col_list, skewed_csdb.col_list)

    def test_add_identity(self, paper_csdb):
        m = add_identity(paper_csdb, scale=2.0)
        assert np.allclose(
            m.to_dense(), paper_csdb.to_dense() + 2.0 * np.eye(7)
        )

    def test_add_identity_requires_square(self):
        rect = CSDBMatrix.from_coo([0], [1], [1.0], (2, 3))
        with pytest.raises(ValueError, match="square"):
            add_identity(rect)

    def test_chebyshev_operator_definition(self, paper_csdb):
        """M = (1 - mu) I - l1norm(I + A)."""
        mu = 0.3
        m = chebyshev_operator(paper_csdb, mu=mu)
        a_prime = paper_csdb.to_dense() + np.eye(7)
        da = a_prime / a_prime.sum(axis=1, keepdims=True)
        expected = (1.0 - mu) * np.eye(7) - da
        assert np.allclose(m.to_dense(), expected)

    def test_chebyshev_operator_spectrum_bounded(self, skewed_csdb):
        m = chebyshev_operator(skewed_csdb, mu=0.2).to_dense()
        eigenvalues = np.linalg.eigvals(m)
        assert np.abs(eigenvalues).max() < 2.0 + 1e-9


class TestRandomizedTSVD:
    def test_recovers_low_rank_matrix(self, rng):
        u_true = np.linalg.qr(rng.standard_normal((60, 5)))[0]
        v_true = np.linalg.qr(rng.standard_normal((40, 5)))[0]
        s_true = np.array([10.0, 8.0, 5.0, 2.0, 1.0])
        a = (u_true * s_true) @ v_true.T
        u, s, vt = randomized_tsvd(
            lambda x: a @ x, lambda y: a.T @ y, a.shape, rank=5, seed=0
        )
        assert np.allclose(s, s_true, rtol=1e-6)
        assert np.allclose((u * s) @ vt, a, atol=1e-6)

    def test_matches_numpy_svd_singular_values(self, rng):
        a = rng.standard_normal((50, 30))
        _, s, _ = randomized_tsvd(
            lambda x: a @ x,
            lambda y: a.T @ y,
            a.shape,
            rank=5,
            n_power_iterations=6,
            seed=1,
        )
        exact = np.linalg.svd(a, compute_uv=False)[:5]
        assert np.allclose(s, exact, rtol=0.05)

    def test_shapes(self, rng):
        a = rng.standard_normal((30, 20))
        u, s, vt = randomized_tsvd(
            lambda x: a @ x, lambda y: a.T @ y, a.shape, rank=4, seed=0
        )
        assert u.shape == (30, 4)
        assert s.shape == (4,)
        assert vt.shape == (4, 20)

    def test_rank_validation(self, rng):
        a = rng.standard_normal((10, 10))
        with pytest.raises(ValueError, match="rank"):
            randomized_tsvd(
                lambda x: a @ x, lambda y: a.T @ y, a.shape, rank=0
            )
        with pytest.raises(ValueError, match="exceeds"):
            randomized_tsvd(
                lambda x: a @ x, lambda y: a.T @ y, a.shape, rank=11
            )

    def test_embedding_from_factors_l2_normalized(self, rng):
        u = rng.standard_normal((20, 4))
        s = np.array([4.0, 3.0, 2.0, 1.0])
        emb = embedding_from_factors(u, s)
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0)


class TestChebyshevFilter:
    def test_spmm_call_count(self, paper_csdb, rng):
        calls = {"n": 0}

        def counted(matrix):
            def matmul(x):
                calls["n"] += 1
                return matrix.spmm(x)

            return matmul

        operator = chebyshev_operator(paper_csdb)
        aggregate = add_identity(paper_csdb)
        x = rng.standard_normal((7, 3))
        order = 6
        chebyshev_gaussian_filter(
            counted(operator), counted(aggregate), x, order=order
        )
        assert calls["n"] == spmm_calls_for_order(order)

    def test_order_one_is_aggregation(self, paper_csdb, rng):
        aggregate = add_identity(paper_csdb)
        x = rng.standard_normal((7, 3))
        out = chebyshev_gaussian_filter(
            chebyshev_operator(paper_csdb).spmm, aggregate.spmm, x, order=1
        )
        assert np.allclose(out, aggregate.spmm(x))

    def test_matches_dense_reference(self, paper_csdb, rng):
        """The recurrence must equal the same expansion computed densely."""
        from scipy.special import iv

        mu, theta, order = 0.2, 0.5, 8
        m = chebyshev_operator(paper_csdb, mu=mu).to_dense()
        a_prime = paper_csdb.to_dense() + np.eye(7)
        x = rng.standard_normal((7, 4))
        lx0, lx1 = x, m @ x
        lx1 = 0.5 * m @ lx1 - x
        conv = iv(0, theta) * lx0 - 2 * iv(1, theta) * lx1
        for i in range(2, order):
            lx2 = (m @ (m @ lx1) - 2 * lx1) - lx0
            conv = conv + ((-1) ** (i % 2 != 0 or -1)) * 0  # no-op, clarity
            if i % 2 == 0:
                conv += 2 * iv(i, theta) * lx2
            else:
                conv -= 2 * iv(i, theta) * lx2
            lx0, lx1 = lx1, lx2
        expected = a_prime @ (x - conv)
        got = chebyshev_gaussian_filter(
            chebyshev_operator(paper_csdb, mu=mu).spmm,
            add_identity(paper_csdb).spmm,
            x,
            order=order,
            theta=theta,
        )
        assert np.allclose(got, expected)

    def test_invalid_order(self, rng):
        with pytest.raises(ValueError, match="order"):
            chebyshev_gaussian_filter(
                lambda x: x, lambda x: x, rng.standard_normal((4, 2)), order=0
            )

    def test_spmm_calls_for_order_values(self):
        assert spmm_calls_for_order(1) == 1
        assert spmm_calls_for_order(2) == 3
        assert spmm_calls_for_order(10) == 2 + 16 + 1


class TestSMF:
    def test_smf_matrix_structure_preserved(self, skewed_csdb):
        f = smf_matrix(skewed_csdb)
        assert np.array_equal(f.col_list, skewed_csdb.col_list)
        assert np.array_equal(f.perm, skewed_csdb.perm)

    def test_smf_values_formula(self, paper_csdb):
        f = smf_matrix(paper_csdb, negative_exponent=0.75)
        tran = row_l1_normalize(paper_csdb)
        colsum = tran.to_dense().sum(axis=0)
        neg = colsum**0.75
        neg = neg / neg.sum()
        dense_tran = tran.to_dense()
        dense_f = f.to_dense()
        for i in range(7):
            for j in range(7):
                if dense_tran[i, j] > 0:
                    expected = np.log(dense_tran[i, j]) - np.log(neg[j])
                    assert dense_f[i, j] == pytest.approx(expected)


class TestEndToEnd:
    def test_prone_embed_shape_and_norm(self, skewed_csdb):
        params = ProNEParams(dim=8, order=4)
        emb = prone_embed(skewed_csdb, params)
        assert emb.shape == (skewed_csdb.n_rows, 8)
        # Connected nodes are unit-norm; isolated nodes embed to zero.
        norms = np.linalg.norm(emb, axis=1)
        connected = skewed_csdb.row_degrees()[skewed_csdb.inv_perm] > 0
        assert np.allclose(norms[connected], 1.0)
        assert np.all(np.isfinite(emb))

    def test_prone_deterministic_in_seed(self, skewed_csdb):
        params = ProNEParams(dim=8, order=3, seed=5)
        a = prone_embed(skewed_csdb, params)
        b = prone_embed(skewed_csdb, params)
        assert np.array_equal(a, b)

    def test_smf_then_propagate_changes_embedding(self, skewed_csdb):
        params = ProNEParams(dim=8, order=4)
        initial = prone_smf(skewed_csdb, params)
        final = prone_propagate(skewed_csdb, initial, params)
        assert not np.allclose(initial, final)

    @pytest.mark.parametrize(
        "field, value",
        [("dim", 0), ("n_oversamples", -8), ("n_power_iterations", -1)],
    )
    def test_params_reject_what_would_shrink_or_skip_the_tsvd(self, field, value):
        # A negative oversampling used to return fewer than `dim` columns.
        with pytest.raises(ValueError, match=field):
            ProNEParams(**{"dim": 16, field: value})

    def test_params_accept_the_least_valid_values(self, skewed_csdb):
        params = ProNEParams(dim=1, order=2, n_oversamples=0, n_power_iterations=0)
        assert prone_embed(skewed_csdb, params).shape == (skewed_csdb.n_rows, 1)

    def test_densify_embedding(self, rng):
        m = rng.standard_normal((30, 12))
        emb = densify_embedding(m, 6)
        assert emb.shape == (30, 6)
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0)

    def test_propagation_improves_neighborhood_coherence(self, skewed_csdb):
        """Propagated embeddings place neighbors closer than random pairs."""
        params = ProNEParams(dim=16, order=8)
        emb = prone_embed(skewed_csdb, params)
        rng = np.random.default_rng(0)
        sims_edge, sims_rand = [], []
        dense = skewed_csdb.to_dense()
        rows, cols = np.nonzero(dense)
        idx = rng.choice(len(rows), size=200, replace=False)
        for i in idx:
            sims_edge.append(emb[rows[i]] @ emb[cols[i]])
        for _ in range(200):
            u, v = rng.integers(skewed_csdb.n_rows, size=2)
            sims_rand.append(emb[u] @ emb[v])
        assert np.mean(sims_edge) > np.mean(sims_rand)
