"""Differential oracle for the tSVD's Cholesky QR range bases.

``randomized_tsvd`` used to normalise its power iterations by the left
factor of a k x k Gram-``eigh`` step (:func:`tall_svd`) and to take its
final basis from Householder QR (``np.linalg.qr``).  It now takes every
range basis from Cholesky QR (:func:`orthonormal_basis`): one pass
inside the power iterations, two (CholeskyQR2) for the final basis.
That tSVD is kept below verbatim as the reference.  On seeded R-MAT
SMF matrices at both benchmark embed sizes and on the spectra of
``test_dense_half`` — decaying, 40 octaves steep, rank-deficient and
zero — the two must return the same singular values to 1e-12 relative
and the same ``U`` and ``Vt`` to 1e-10 once column signs are aligned
(an SVD fixes a singular vector only up to sign, DESIGN §6g).
``OMeGaEmbedder`` must embed bit for bit as the reference pipeline
does, up to the sign of each column, wherever the float32 cast of the
two initial embeddings agrees; it does on most graphs, not on all.

``orthonormal_basis`` itself is stressed over condition numbers
1e1..1e14, a rank-deficient block, a zero block and k = 1: the basis is
orthonormal and keeps the block's range, and wherever it falls back,
its result is ``np.linalg.qr(block)[0]`` bit for bit.
"""

import numpy as np
import pytest

import repro.prone.model as prone_model
from repro.core import OMeGaConfig, OMeGaEmbedder
from repro.formats import edges_to_csdb
from repro.graphs import rmat_edges
from repro.prone.model import PROPAGATION_DTYPE, prone_smf, smf_matrix
from repro.prone.tsvd import orthonormal_basis, randomized_tsvd

from .test_dense_half import decaying, products
from .test_embed_ledger_oracle import sign_canonical
from .test_pattern_once import assert_same_bits

# ---------------------------------------------------------------------------
# The reference: the tSVD as it stood before the Cholesky QR bases
# ---------------------------------------------------------------------------


def tall_svd(block, rank):
    """Leading ``rank`` singular triplets of a tall (n, k) block, k << n."""
    eigenvalues, w = np.linalg.eigh(block.T @ block)
    # eigh sorts ascending; keep the leading pairs, descending.
    w = w[:, ::-1][:, :rank]
    s = np.sqrt(np.maximum(eigenvalues[::-1][:rank], 0.0))
    u = block @ w
    u *= np.divide(1.0, s, out=np.zeros_like(s), where=s > 0.0)
    return u, s, w


def reference_tsvd(
    matmul,
    rmatmul,
    shape,
    rank,
    n_oversamples=8,
    n_power_iterations=2,
    seed=0,
):
    """Truncated SVD ``A ~= U diag(s) Vt`` via randomized range finding."""
    n_rows, n_cols = shape
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if rank > min(n_rows, n_cols):
        raise ValueError(
            f"rank {rank} exceeds min(shape) = {min(n_rows, n_cols)}"
        )
    k = min(rank + n_oversamples, min(n_rows, n_cols))
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((n_cols, k))
    y = matmul(omega)
    for _ in range(n_power_iterations):
        # Range-only normalisation through the k x k Gram matrix: the
        # block's left singular vectors, a zero column where a singular
        # value reads as 0.
        z = rmatmul(tall_svd(y, k)[0])
        y = matmul(tall_svd(z, k)[0])
    q = np.linalg.qr(y)[0]
    # B = Q^T A arrives transposed, as A^T Q (n_cols, k), in one rmatmul:
    # B^T = V diag(s) W^T, so A ~= (Q W) diag(s) V^T.
    v, s, w = tall_svd(rmatmul(q), rank)
    return q @ w, s, v.T


# ---------------------------------------------------------------------------
# The tSVD against the reference
# ---------------------------------------------------------------------------

#: (R-MAT scale, embedding dim) of the benchmark's two embeds:
#: ``embed_tiny`` and ``embed_skewed``.
EMBED_SIZES = ((10, 16), (13, 32))
EDGE_FACTOR = 16.0


def _rmat_operator(scale, seed):
    adjacency = edges_to_csdb(
        rmat_edges(scale, EDGE_FACTOR, seed=seed), 1 << scale
    )
    f = smf_matrix(adjacency)
    return f.spmm, f.transpose().spmm, f.shape


def _dense_operator(name):
    rng = np.random.default_rng(0)
    a = {
        "decaying": lambda: decaying(rng, 300, 200, 2.0 ** -np.arange(12.0)),
        "steep": lambda: decaying(rng, 400, 300, 2.0 ** -np.linspace(0, 40, 40)),
        "rank_deficient": lambda: decaying(rng, 60, 40, [10.0, 8.0, 5.0]),
        "zero": lambda: np.zeros((30, 20)),
    }[name]()
    return (*products(a), a.shape)


# (operator, rank, tSVD keywords) as test_dense_half runs each spectrum.
CASES = {
    **{
        f"rmat{scale}_d{dim}_seed{seed}": (
            lambda scale=scale, seed=seed: _rmat_operator(scale, seed), dim, {}
        )
        for scale, dim in EMBED_SIZES
        for seed in (1, 2)
    },
    "decaying": (
        lambda: _dense_operator("decaying"),
        6,
        {"n_oversamples": 6, "n_power_iterations": 3},
    ),
    "steep": (lambda: _dense_operator("steep"), 8, {}),
    "rank_deficient": (lambda: _dense_operator("rank_deficient"), 6, {}),
    "zero": (lambda: _dense_operator("zero"), 4, {}),
}


def _align_signs(got, expected, axis):
    """``got`` with each singular vector's sign flipped to ``expected``'s."""
    dots = np.sum(got * expected, axis=axis, keepdims=True)
    return got * np.where(dots < 0, -1.0, 1.0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_tsvd_matches_the_householder_reference(name):
    build, rank, kwargs = CASES[name]
    matmul, rmatmul, shape = build()
    u, s, vt = randomized_tsvd(matmul, rmatmul, shape, rank, **kwargs)
    u_ref, s_ref, vt_ref = reference_tsvd(matmul, rmatmul, shape, rank, **kwargs)
    assert u.shape == u_ref.shape and vt.shape == vt_ref.shape
    # Singular values below the Gram step's sqrt(eps) floor are rounding
    # noise on both sides (rank-deficient and zero inputs), and so are
    # their vectors: compare the resolved triplets only.
    resolved = s_ref > 1e-6 * s_ref[0] if s_ref[0] > 0 else s_ref > 0
    assert np.array_equal(resolved, s > 1e-6 * s[0] if s[0] > 0 else s > 0)
    if name == "zero":
        assert not s.any() and not vt.any()
    assert np.abs(s[resolved] / s_ref[resolved] - 1.0).max(initial=0.0) <= 1e-12
    assert np.all(s[~resolved] < 1e-6) and np.all(s_ref[~resolved] < 1e-6)
    u, u_ref = u[:, resolved], u_ref[:, resolved]
    vt, vt_ref = vt[resolved], vt_ref[resolved]
    assert np.abs(_align_signs(u, u_ref, 0) - u_ref).max(initial=0.0) <= 1e-10
    assert np.abs(_align_signs(vt, vt_ref, 1) - vt_ref).max(initial=0.0) <= 1e-10


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("scale, dim", EMBED_SIZES)
def test_embedding_matches_the_reference_pipeline(scale, dim, seed, monkeypatch):
    """Bit for bit up to column sign, unless a float32 rounding flips.

    The two tSVDs' initial embeddings agree to rounding (1e-12), and the
    propagation half starts from their float32 casts.  Where those casts
    agree (after aligning column signs) the final embeddings are equal
    bit for bit up to the sign of each column.  Where one of the n x d
    entries sits on a float32 rounding boundary, the casts differ in
    that entry's last bit, and the embeddings may differ by the float32
    propagation's rounding: here R-MAT-10 seed 1 (1 entry) and R-MAT-13
    seed 3 (3 entries) still embed to the same bits, R-MAT-13 seed 1
    (2 of 262144 entries) moves by 6e-9.
    """
    edges = rmat_edges(scale, EDGE_FACTOR, seed=seed)
    adjacency = edges_to_csdb(edges, 1 << scale)
    embedder = OMeGaEmbedder(
        OMeGaConfig(n_threads=8, dim=dim, capacity_scale=512)
    )
    initial = prone_smf(adjacency, embedder.params)
    got = embedder.embed_edges(edges, 1 << scale).embedding
    monkeypatch.setattr(prone_model, "randomized_tsvd", reference_tsvd)
    initial_ref = prone_smf(adjacency, embedder.params)
    expected = embedder.embed_edges(edges, 1 << scale).embedding
    assert got.dtype == expected.dtype == np.float64
    initial = _align_signs(initial, initial_ref, 0)
    assert np.abs(initial - initial_ref).max() <= 1e-12
    cast = PROPAGATION_DTYPE
    if np.array_equal(initial.astype(cast), initial_ref.astype(cast)):
        assert_same_bits(sign_canonical(got), sign_canonical(expected))
    else:
        got = _align_signs(got, expected, 0)
        assert np.abs(got - expected).max() <= 1e-6


# ---------------------------------------------------------------------------
# orthonormal_basis under stress
# ---------------------------------------------------------------------------


def _conditioned(n, k, condition):
    """An (n, k) block with singular values log-spaced from 1 to 1/condition."""
    spectrum = np.logspace(0, -np.log10(condition), k)
    return decaying(np.random.default_rng(0), n, k, spectrum)


def _rank_deficient(n, k):
    block = np.random.default_rng(1).standard_normal((n, k))
    block[:, k // 2:] = block[:, : k - k // 2] * 3.0
    return block


BLOCKS = {
    **{
        f"{n}x{k}_cond1e{c}": (lambda n=n, k=k, c=c: _conditioned(n, k, 10.0**c))
        for n, k in ((8192, 40), (1024, 24), (300, 12))
        for c in range(1, 15)
    },
    **{
        f"300x1_scale1e{c}": (lambda c=c: _conditioned(300, 1, 1.0) * 10.0**-c)
        for c in (0, 7, 14)
    },
    "rank_deficient": lambda: _rank_deficient(500, 10),
    "zero": lambda: np.zeros((200, 8)),
    "zero_k1": lambda: np.zeros((200, 1)),
}


@pytest.fixture
def qr_calls(monkeypatch):
    """Counts ``np.linalg.qr`` calls, which only the fallback makes."""
    calls = []
    householder = np.linalg.qr

    def counted(block, *args, **kwargs):
        calls.append(block)
        return householder(block, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_orthonormal_basis_keeps_the_range(name, passes, qr_calls):
    block = BLOCKS[name]()
    before = block.copy()
    qr_calls.clear()
    q = orthonormal_basis(block, passes)
    fell_back = bool(qr_calls)
    assert_same_bits(block, before)
    assert q.shape == block.shape and q.flags.c_contiguous
    # One pass leaves Q^T Q off the identity by about eps * cond**2, so
    # inside the trust ratio (cond up to about 1e6) by at most ~1e-4;
    # CholeskyQR2 and the fallback are orthonormal to rounding.
    bound = 1e-12 if passes == 2 or fell_back else 1e-4
    assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= bound
    # The range is kept: the block is a combination of Q's columns.
    scale = np.abs(block).max()
    if scale > 0:
        coefficients = np.linalg.lstsq(q, block, rcond=None)[0]
        assert np.abs(q @ coefficients - block).max() <= 1e-10 * scale
    if fell_back:
        assert_same_bits(q, np.linalg.qr(block)[0])


@pytest.mark.parametrize("passes", [1, 2])
def test_orthonormal_basis_falls_back_only_past_its_trust_ratio(
    passes, qr_calls
):
    trusted = (
        _conditioned(1024, 24, 1e3),
        _conditioned(300, 1, 1.0) * 1e-14,
    )
    untrusted = (
        _conditioned(1024, 24, 1e10),
        _rank_deficient(500, 10),
        np.zeros((200, 8)),
    )
    qr_calls.clear()
    # Well conditioned, and k = 1 at any scale: Cholesky QR only.
    for block in trusted:
        orthonormal_basis(block, passes)
    assert not qr_calls
    # Past the trust ratio, rank-deficient and zero: Householder QR.
    for block in untrusted:
        orthonormal_basis(block, passes)
    assert [id(block) for block in qr_calls] == [id(b) for b in untrusted]


def test_the_final_basis_takes_two_passes(qr_calls):
    """Inside the trust ratio one pass would leave ``U`` off orthonormal.

    With no power iterations the final basis normalises ``A @ omega``
    itself, whose condition here is about 1e5: one Cholesky pass leaves
    ``U^T U`` off the identity by about 1e-6, CholeskyQR2 by rounding.
    """
    rng = np.random.default_rng(4)
    a = decaying(rng, 500, 300, np.logspace(0, -5, 20))
    qr_calls.clear()
    u, _, _ = randomized_tsvd(*products(a), a.shape, 12, n_power_iterations=0)
    assert not qr_calls
    assert np.abs(u.T @ u - np.eye(12)).max() <= 1e-12
