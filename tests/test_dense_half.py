"""The dense half of an embed, pinned against what it replaced.

Everything an embed does between its sparse products was rewritten to
cost what the hardware asks; each piece has an oracle here:

- the Chebyshev / heat / PPR recurrences run in place on the products'
  outputs — byte-equal to the allocating textbook forms kept verbatim
  below, and the input embedding is never written;
- ``CSDBMatrix.transpose`` is a gather + counting transpose — all five
  block arrays byte-equal to the sorting ``from_coo`` build it replaced;
- ``randomized_tsvd`` takes its range bases from Cholesky QR (one
  Householder QR where the Gram matrix cannot be trusted) and factorises
  the projection through a k x k Gram matrix — checked against
  ``np.linalg.svd``, also on a steep spectrum; ``densify_embedding``
  likewise (``test_tsvd_basis_oracle`` pins the bases against the
  Householder tSVD they replaced);
- an embed never imports ``scipy.linalg``, so its dense steps run on
  one OpenBLAS;
- degenerate inputs (zero block, edgeless graph, rank < k) stay finite;
  a non-finite operator and a rank outside ``1..k`` raise ``ValueError``;
- the embedding's link-prediction AUC sits where the parent's did;
- an embed's recorded ``SpMMResult``s no longer pin the products' outputs.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import iv

from repro.core import OMeGaConfig, OMeGaEmbedder
from repro.eval.linkpred import link_prediction_auc
from repro.eval.splits import sample_negative_edges, train_test_edge_split
from repro.formats import CSDBMatrix, edges_to_csdb
from repro.prone import prone_embed
from repro.prone.chebyshev import chebyshev_gaussian_filter
from repro.prone.filters import heat_kernel_filter, ppr_filter
from repro.prone.laplacian import add_identity, chebyshev_operator
from repro.prone.model import ProNEParams, densify_embedding
from repro.prone.tsvd import orthonormal_basis, randomized_tsvd, tall_svd

from .test_pattern_once import CSDB_ARRAYS, assert_same_bits


# -- the recurrences, as they were -------------------------------------------


def textbook_chebyshev(operator_matmul, aggregate_matmul, embedding, order, theta):
    """``chebyshev_gaussian_filter`` before it worked in place."""
    x = np.asarray(embedding, dtype=np.float64)
    if order == 1:
        return aggregate_matmul(x)
    lx0 = x
    lx1 = operator_matmul(x)
    lx1 = 0.5 * operator_matmul(lx1) - x
    conv = iv(0, theta) * lx0
    conv -= 2.0 * iv(1, theta) * lx1
    for i in range(2, order):
        lx2 = operator_matmul(lx1)
        lx2 = (operator_matmul(lx2) - 2.0 * lx1) - lx0
        if i % 2 == 0:
            conv += 2.0 * iv(i, theta) * lx2
        else:
            conv -= 2.0 * iv(i, theta) * lx2
        lx0, lx1 = lx1, lx2
    return aggregate_matmul(x - conv)


def textbook_heat(operator_matmul, aggregate_matmul, embedding, order, s):
    """``heat_kernel_filter`` before it worked in place."""
    x = np.asarray(embedding, dtype=np.float64)
    term = x
    total = x.copy()
    for k in range(1, order + 1):
        term = operator_matmul(term) * (-s / k)
        total += term
    return aggregate_matmul(total)


def textbook_ppr(operator_matmul, aggregate_matmul, embedding, order, alpha):
    """``ppr_filter`` before it worked in place."""
    x0 = np.asarray(embedding, dtype=np.float64)
    x = x0.copy()
    for _ in range(order):
        m_x = operator_matmul(x)
        propagated = x - m_x
        x = (1.0 - alpha) * propagated + alpha * x0
        norm = np.abs(x).max()
        if norm > 0 and not math.isfinite(norm):
            raise FloatingPointError("PPR propagation diverged")
        if norm > 1e6:
            x /= norm
    return aggregate_matmul(x)


FILTER_PAIRS = {
    "gaussian": (chebyshev_gaussian_filter, textbook_chebyshev, {"theta": 0.5}),
    "heat": (heat_kernel_filter, textbook_heat, {"s": 0.8}),
    "ppr": (ppr_filter, textbook_ppr, {"alpha": 0.15}),
}


@pytest.mark.parametrize("order", [1, 2, 3, 10])
@pytest.mark.parametrize("name", sorted(FILTER_PAIRS))
def test_in_place_filter_matches_textbook_bits_and_spares_its_input(
    skewed_csdb, rng, name, order
):
    in_place, textbook, kwargs = FILTER_PAIRS[name]
    operator = chebyshev_operator(skewed_csdb, mu=0.2).spmm
    aggregate = add_identity(skewed_csdb).spmm
    x = rng.standard_normal((skewed_csdb.n_rows, 5))
    x[3] = -0.0
    before = x.copy()
    expected = textbook(operator, aggregate, x, order, **kwargs)
    got = in_place(operator, aggregate, x, order=order, **kwargs)
    assert_same_bits(got, expected)
    assert_same_bits(x, before)


def test_ppr_rescale_branch_matches_textbook_bits(rng):
    """The ``norm > 1e6`` in-place rescale, reached with a growing operator."""
    grow = rng.standard_normal((6, 6)) * 1e4
    x = rng.standard_normal((6, 3))
    before = x.copy()
    args = (lambda y: grow @ y, lambda y: y, x, 4)
    assert_same_bits(ppr_filter(*args, alpha=0.15), textbook_ppr(*args, alpha=0.15))
    assert_same_bits(x, before)


# -- CSDBMatrix.transpose -----------------------------------------------------


@st.composite
def rectangular_matrices(draw):
    """Small rectangular CSDB matrices: empty rows/columns, both zeros, nnz 0."""
    n_rows = draw(st.integers(1, 7))
    n_cols = draw(st.integers(1, 7))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
            unique=True,
            max_size=n_rows * n_cols,
        )
    )
    rows = [r for r, _ in cells]
    cols = [c for _, c in cells]
    pattern = CSDBMatrix.from_coo(rows, cols, np.ones(len(cells)), (n_rows, n_cols))
    # from_coo normalises -0.0 away, so the values go in afterwards.
    vals = draw(
        st.lists(
            st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e-300, 3e8]),
            min_size=len(cells),
            max_size=len(cells),
        )
    )
    return pattern.with_values(np.asarray(vals, dtype=np.float64))


def sorting_transpose(matrix: CSDBMatrix) -> CSDBMatrix:
    """``CSDBMatrix.transpose`` before it stopped sorting."""
    return CSDBMatrix.from_coo(
        matrix.col_list,
        matrix.nnz_row_ids(),
        matrix.nnz_list,
        (matrix.n_cols, matrix.n_rows),
    )


def assert_transpose_matches_sorting_build(matrix: CSDBMatrix) -> CSDBMatrix:
    got, expected = matrix.transpose(), sorting_transpose(matrix)
    assert got.shape == expected.shape == (matrix.n_cols, matrix.n_rows)
    for name in CSDB_ARRAYS:
        assert_same_bits(getattr(got, name), getattr(expected, name))
    return got


@settings(max_examples=200, deadline=None)
@given(rectangular_matrices())
def test_transpose_matches_sorting_build_bits(matrix):
    got = assert_transpose_matches_sorting_build(matrix)
    assert np.array_equal(got.to_dense(), matrix.to_dense().T)


def test_transpose_matches_sorting_build_bits_on_a_graph(skewed_csdb, rng):
    assert_transpose_matches_sorting_build(
        skewed_csdb.with_values(rng.standard_normal(skewed_csdb.nnz))
    )


# -- randomized_tsvd / tall_svd / densify_embedding ---------------------------


def products(a: np.ndarray):
    return (lambda x: a @ x), (lambda y: a.T @ y)


def decaying(rng, n_rows, n_cols, singular_values):
    """A matrix with exactly the given singular values."""
    r = len(singular_values)
    u = np.linalg.qr(rng.standard_normal((n_rows, r)))[0]
    v = np.linalg.qr(rng.standard_normal((n_cols, r)))[0]
    return (u * np.asarray(singular_values)) @ v.T


def test_tsvd_matches_lapack_on_a_decaying_spectrum(rng):
    a = decaying(rng, 300, 200, 2.0 ** -np.arange(12.0))
    rank = 6
    u, s, vt = randomized_tsvd(
        *products(a), a.shape, rank, n_oversamples=6, n_power_iterations=3
    )
    u_ref, s_ref, vt_ref = np.linalg.svd(a, full_matrices=False)
    assert np.allclose(s, s_ref[:rank], rtol=1e-8, atol=0.0)
    assert np.all(np.diff(s) < 0)
    assert np.abs(u.T @ u - np.eye(rank)).max() < 1e-10
    assert np.abs(vt @ vt.T - np.eye(rank)).max() < 1e-10
    # k = 12 spans the whole range, so the rank-6 truncation is LAPACK's.
    truncated = (u_ref[:, :rank] * s_ref[:rank]) @ vt_ref[:rank]
    assert np.allclose((u * s) @ vt, truncated, atol=1e-10)


def test_tsvd_holds_its_accuracy_on_a_steep_spectrum(rng):
    """Forty octaves of decay, where squaring a block's condition bites.

    The power iterations normalise through k x k Gram matrices, which
    square each block's condition number; the leading values and both
    bases must still be LAPACK's to 1e-12.
    """
    a = decaying(rng, 400, 300, 2.0 ** -np.linspace(0, 40, 40))
    rank = 8
    u, s, vt = randomized_tsvd(*products(a), a.shape, rank)
    s_ref = np.linalg.svd(a, compute_uv=False)[:rank]
    assert np.abs(s / s_ref - 1.0).max() <= 1e-12
    assert np.abs(u.T @ u - np.eye(rank)).max() <= 1e-12
    assert np.abs(vt @ vt.T - np.eye(rank)).max() <= 1e-12


def test_tsvd_rank_deficient_input_is_finite_and_exact_where_resolved(rng):
    a = decaying(rng, 60, 40, [10.0, 8.0, 5.0])
    u, s, vt = randomized_tsvd(*products(a), a.shape, rank=6)
    for factor in (u, s, vt):
        assert np.all(np.isfinite(factor))
    assert np.allclose(s[:3], [10.0, 8.0, 5.0], rtol=1e-10)
    # Unresolved values sit at the Gram step's noise floor or read as 0.
    assert np.all(s[3:] < 1e-6)
    assert np.abs(u.T @ u - np.eye(6)).max() < 1e-10
    assert np.allclose((u * s) @ vt, a, atol=1e-8)


def test_tsvd_of_zero_matrix_is_finite_zero():
    a = np.zeros((30, 20))
    u, s, vt = randomized_tsvd(*products(a), a.shape, rank=4)
    assert u.shape == (30, 4) and vt.shape == (4, 20)
    assert np.all(np.isfinite(u))
    assert not s.any() and not vt.any()
    assert np.abs(u.T @ u - np.eye(4)).max() < 1e-10


def test_tall_svd_zero_singular_value_gives_zero_column(rng):
    block = rng.standard_normal((50, 4))
    block[:, 3] = block[:, 0]  # rank 3
    u, s, w = tall_svd(block, 4)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(s))
    s_ref = np.linalg.svd(block, compute_uv=False)
    assert np.allclose(s[:3], s_ref[:3], rtol=1e-10)
    assert np.allclose((u * s) @ w.T, block, atol=1e-7)
    u0, s0, _ = tall_svd(np.zeros((50, 4)), 4)
    assert not u0.any() and not s0.any()


def test_densify_matches_lapack_svd(rng):
    m = rng.standard_normal((200, 12)) * 2.0 ** -np.arange(12.0)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    expected = u[:, :6] * np.sqrt(s[:6])
    expected /= np.linalg.norm(expected, axis=1, keepdims=True)
    got = densify_embedding(m, 6)
    # Singular vectors are defined up to sign.
    signs = np.sign(np.sum(got * expected, axis=0))
    assert np.allclose(got * signs, expected, atol=1e-9)


def test_densify_of_zero_block_is_zero():
    assert not densify_embedding(np.zeros((40, 8)), 8).any()


@pytest.mark.parametrize("rank", [0, 5, 9])
def test_tall_svd_rejects_a_rank_outside_its_width(rng, rank):
    """It used to return ``min(rank, k)`` columns, or none at rank 0."""
    with pytest.raises(ValueError, match=rf"rank .*k = 4.* got {rank}$"):
        tall_svd(rng.standard_normal((50, 4)), rank)


def test_densify_rejects_a_dim_wider_than_its_block(rng):
    """It used to return an (n, 4) embedding when asked for 6 columns."""
    with pytest.raises(ValueError, match=r"k = 4.* got 6$"):
        densify_embedding(rng.standard_normal((40, 4)), 6)


def _poisoned(a, fail_at, value):
    """``products(a)`` whose call number ``fail_at`` (from 0) holds ``value``."""
    calls = []

    def poison(product):
        def call(x):
            out = product(x)
            if len(calls) == fail_at:
                out[1, 0] = value
            calls.append(fail_at)
            return out

        return call

    return tuple(poison(product) for product in products(a))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize(
    "fail_at, n_power_iterations, product",
    [
        (0, 2, "A @ omega"),
        (1, 2, "A.T @ Y"),
        (2, 2, "A @ Z"),
        (4, 2, "A @ Z"),
        (5, 2, "A.T @ Q"),
        (1, 0, "A.T @ Q"),
    ],
)
def test_a_non_finite_product_raises_a_typed_error_naming_it(
    rng, value, fail_at, n_power_iterations, product
):
    a = decaying(rng, 60, 40, 2.0 ** -np.arange(10.0))
    with pytest.raises(ValueError, match=rf"the product {product} is not finite"):
        randomized_tsvd(
            *_poisoned(a, fail_at, value), a.shape, rank=4,
            n_power_iterations=n_power_iterations,
        )


def test_a_non_finite_operator_raises_from_the_first_product(rng):
    a = decaying(rng, 60, 40, [10.0, 8.0, 5.0])
    a[7, 3] = np.nan
    with pytest.raises(ValueError, match=r"the product A @ omega is not finite"):
        randomized_tsvd(*products(a), a.shape, rank=4)


@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_orthonormal_basis_rejects_a_non_finite_block(rng, value, passes):
    block = rng.standard_normal((50, 4))
    block[10, 2] = value
    with pytest.raises(ValueError, match="NaN or an infinity"):
        orthonormal_basis(block, passes)


def test_edgeless_graph_embeds_to_finite_zeros():
    adjacency = edges_to_csdb(np.empty((0, 2), dtype=np.int64), 24)
    embedding = prone_embed(adjacency, ProNEParams(dim=4, order=3))
    assert embedding.shape == (24, 4)
    assert not embedding.any()
    result = OMeGaEmbedder(OMeGaConfig(n_threads=2, dim=4)).embed(adjacency)
    assert not result.embedding.any()


# -- the embedding is as useful as it was -------------------------------------

#: Link-prediction AUC of ``prone_embed`` (dim 32) on the conftest skewed
#: graph as first recorded (QR per power iteration, LAPACK SVDs): 10 %
#: held-out edges, split/negatives seed 0.  Both dense-algebra
#: re-baselines since — the LU range finder with Gram SVDs, then Gram
#: normalisation with numpy's QR (DESIGN §6g) — stay within its 0.005.
PARENT_AUC = 0.56133125


def test_link_prediction_auc_is_where_the_parent_left_it(skewed_edges):
    train, test = train_test_edge_split(skewed_edges, 0.1, seed=0)
    negatives = sample_negative_edges(skewed_edges, 600, len(test), seed=0)
    embedding = prone_embed(edges_to_csdb(train, 600), ProNEParams(dim=32))
    auc = link_prediction_auc(embedding, test, negatives)
    assert abs(auc - PARENT_AUC) <= 0.005


# -- one BLAS per embed --------------------------------------------------------


_EMBED_BOTH_WAYS = """
import sys
from repro.core import OMeGaConfig, OMeGaEmbedder
from repro.formats import edges_to_csdb
from repro.graphs import rmat_edges
from repro.prone import prone_embed
from repro.prone.model import ProNEParams

edges = rmat_edges(9, edge_factor=8.0, seed=1)
prone_embed(edges_to_csdb(edges, 512), ProNEParams(dim=8))
OMeGaEmbedder(OMeGaConfig(n_threads=2, dim=8)).embed_edges(edges, 512)
print("scipy.linalg" in sys.modules)
"""


def test_an_embed_never_calls_scipys_blas():
    """Every dense step of an embed runs on numpy's OpenBLAS.

    numpy and scipy each ship an OpenBLAS with its own thread pool
    (``numpy.libs/libscipy_openblas64_*.so`` and
    ``scipy.libs/libscipy_openblas*.so``).  Alternating between them is
    what cost: on a 2-vCPU host a numpy Gram step of an 8192 x 40 block
    took 0.6-0.9 ms alone but 3.9-4.5 ms between scipy LU / QR calls,
    and inside an embed a Gram SVD took 13-14 ms against 1.05 ms once
    nothing called scipy's pool (DESIGN §6g).  Both libraries stay
    mapped — ``scipy.sparse`` and ``scipy.special`` load scipy's at
    import — so the guard is that ``scipy.linalg``, the way into
    scipy's pool, is never imported.  A fresh interpreter, since any
    other test may import it.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _EMBED_BOTH_WAYS],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.split() == ["False"]


# -- recorded results do not pin the products ----------------------------------


def test_embed_records_every_product_without_its_output(skewed_edges):
    result = OMeGaEmbedder(OMeGaConfig(n_threads=4, dim=8)).embed_edges(
        skewed_edges, 600
    )
    assert len(result.spmm_results) == result.n_spmm > 0
    assert all(r.output is None for r in result.spmm_results)
    assert all(r.sim_seconds > 0 and r.nnz > 0 for r in result.spmm_results)
    reference = prone_embed(
        edges_to_csdb(skewed_edges, 600), ProNEParams(dim=8)
    )
    assert_same_bits(result.embedding, reference)
