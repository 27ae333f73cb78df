"""Randomized truncated SVD (Halko, Martinsson, Tropp 2011).

ProNE's sparse-matrix-factorization stage uses randomized tSVD, whose
cost is dominated by the sparse-times-dense products — exactly the SpMM
operations OMeGa accelerates.  The implementation therefore takes the
products as callables (``matmul(X) = A @ X`` and ``rmatmul(Y) = A.T @ Y``)
so the caller can route them through the instrumented engine.

The dense algebra between the products is sized to what each step needs,
and all of it runs on numpy's LAPACK.  scipy ships a second OpenBLAS
with its own thread pool; alternating calls between the two pools made
every dense step several times slower than either alone (DESIGN §6g),
so nothing here imports ``scipy.linalg``:

- every range basis comes from Cholesky QR through the block's k x k
  Gram matrix (:func:`orthonormal_basis`): two GEMMs, a k x k Cholesky
  and a k x k inverse per pass.  *Inside* the power iterations the
  block only has to keep its range, so one pass normalises it; the
  final basis ``Q`` takes two (CholeskyQR2), which makes it orthonormal
  to rounding, and comes back C-ordered for the next ``rmatmul``;
- where the Gram matrix cannot be trusted — a zero, rank-deficient or
  ill-conditioned block (:data:`CHOLESKY_TRUST`) — the basis is
  Householder QR's (``np.linalg.qr``) instead;
- the projection ``B = Q^T A`` (k x n) is factorised through its k x k
  Gram matrix (:func:`tall_svd` of ``B^T = A^T Q``, which is how one
  ``rmatmul`` delivers it).  No k x n SVD is ever formed.

Accuracy contract of the Gram step: ``U`` is orthonormal to rounding
whatever the spectrum (it is a product of two orthonormal factors); a
singular value ``s_i`` carries relative error about
``eps * (s_1 / s_i)**2``, so values below ``sqrt(eps) * s_1`` are not
resolved and may read as 0.  The embeddings here keep the *leading*
singular directions of matrices whose leading spectrum spans a few
octaves, where that is rounding noise (measured: DESIGN §6g).

A product that goes non-finite (the operator holds a NaN or an
infinity) raises ``ValueError`` naming the product.  Finiteness is only
checked once a factorisation has failed, so a finite run pays nothing
for it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

MatMul = Callable[[np.ndarray], np.ndarray]


def tall_svd(
    block: np.ndarray, rank: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading ``rank`` singular triplets of a tall (n, k) block, k << n.

    Works on the k x k Gram matrix ``block^T block = W diag(s^2) W^T``,
    so the only O(n) work is two GEMMs.  Returns ``(u, s, w)`` with
    ``block ~= u @ diag(s) @ w.T``, ``s`` descending, ``w`` (k, rank)
    orthonormal and ``u = block @ w / s`` (n, rank).  A singular value
    that reads as 0 gets an all-zero column of ``u``, never a division
    by it.  ``block`` is not written.

    Raises:
        ValueError: ``rank`` is not in ``1..k``; the factors would
            otherwise come back narrower than asked.
    """
    width = block.shape[1]
    if not 1 <= rank <= width:
        raise ValueError(
            f"rank must be in 1..k = {width} (the block's width), got {rank}"
        )
    eigenvalues, w = np.linalg.eigh(block.T @ block)
    # eigh sorts ascending; keep the leading pairs, descending.
    w = w[:, ::-1][:, :rank]
    s = np.sqrt(np.maximum(eigenvalues[::-1][:rank], 0.0))
    u = block @ w
    u *= np.divide(1.0, s, out=np.zeros_like(s), where=s > 0.0)
    return u, s, w


#: Cholesky QR's trust test: a pass falls back to Householder QR when
#: ``min(diag L) <= CHOLESKY_TRUST * max(diag L)`` for the Gram matrix's
#: factor ``L``.  The diagonal of ``L`` is that of the block's R factor,
#: so the ratio bounds the block's condition number from below.  One pass
#: leaves ``Q^T Q`` off the identity by about ``eps * cond(block)**2``,
#: and the second pass of CholeskyQR2 repairs that only while the first
#: pass's ``Q`` is itself well conditioned.  Past this ratio the Gram
#: matrix has lost about half of double precision's digits, which is
#: where the fallback takes over: measured on 8192 x 40 to 50 x 1
#: blocks, two passes keep ``|Q^T Q - I|`` <= 1e-15 for conditions
#: 1e1..1e6, and the fallback fires from about 1e7 on.  The embed's
#: R-MAT blocks sit far inside it and never fall back.
CHOLESKY_TRUST = 1e-5


def orthonormal_basis(block: np.ndarray, passes: int) -> np.ndarray:
    """An (n, k) basis of a tall block's range, by Cholesky QR.

    Each pass factorises the k x k Gram matrix ``block^T block = L L^T``
    and returns ``block @ inv(L^T)`` — two GEMMs where Householder QR
    is limited by matrix-vector work.  One pass keeps the range with
    ``Q^T Q`` off the identity by ``eps * cond(block)**2``; two passes
    (CholeskyQR2) make ``Q`` orthonormal to rounding.  Where the
    Cholesky factorisation fails or fails :data:`CHOLESKY_TRUST` (zero,
    rank-deficient or ill-conditioned blocks) the result is
    ``np.linalg.qr(block)[0]``, which is orthonormal for any finite
    block.  ``block`` is not written.

    Raises:
        ValueError: the block holds a NaN or an infinity (checked only
            on the fallback path).
    """
    q = block
    for _ in range(passes):
        try:
            factor = np.linalg.cholesky(q.T @ q)
        except np.linalg.LinAlgError:
            return _householder_basis(block)
        diagonal = factor.diagonal()
        # Written as ``not >`` so that a NaN on the diagonal falls back.
        if not diagonal.min() > CHOLESKY_TRUST * diagonal.max():
            return _householder_basis(block)
        q = q @ np.linalg.inv(factor.T)
    return q


def _householder_basis(block: np.ndarray) -> np.ndarray:
    if not np.isfinite(block).all():
        raise ValueError("the block holds a NaN or an infinity")
    return np.linalg.qr(block)[0]


def randomized_tsvd(
    matmul: MatMul,
    rmatmul: MatMul,
    shape: tuple[int, int],
    rank: int,
    n_oversamples: int = 8,
    n_power_iterations: int = 2,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated SVD ``A ~= U diag(s) Vt`` via randomized range finding.

    Args:
        matmul: computes ``A @ X`` for a dense (n_cols, k) X.
        rmatmul: computes ``A.T @ Y`` for a dense (n_rows, k) Y.
        shape: (n_rows, n_cols) of A.
        rank: target rank d.
        n_oversamples: extra random directions for range accuracy.
        n_power_iterations: subspace (power) iterations sharpening the
            spectrum; each costs one matmul + one rmatmul.
        seed: RNG seed for the Gaussian test matrix.

    Returns:
        (U, s, Vt) with U (n_rows, rank) orthonormal, s (rank,)
        descending, Vt (rank, n_cols).  Where ``s`` reads as 0 (A has
        numerical rank below ``rank``) the row of ``Vt`` is zero; every
        entry is finite.

    Raises:
        ValueError: ``rank`` is out of range, or a product went
            non-finite (the message names it).
    """
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
    y, product = matmul(omega), "A @ omega"
    for _ in range(n_power_iterations):
        # Range-only normalisation: one Cholesky QR pass.
        z = rmatmul(_product_basis(y, 1, product))
        y, product = matmul(_product_basis(z, 1, "A.T @ Y")), "A @ Z"
    q = _product_basis(y, 2, product)
    # B = Q^T A arrives transposed, as A^T Q (n_cols, k), in one rmatmul:
    # B^T = V diag(s) W^T, so A ~= (Q W) diag(s) V^T.
    b_t = rmatmul(q)
    try:
        v, s, w = tall_svd(b_t, rank)
    except np.linalg.LinAlgError:
        if np.isfinite(b_t).all():
            raise
        raise _non_finite("A.T @ Q") from None
    return q @ w, s, v.T


def _product_basis(block: np.ndarray, passes: int, product: str) -> np.ndarray:
    """:func:`orthonormal_basis` of the output of ``product``."""
    try:
        return orthonormal_basis(block, passes)
    except ValueError:
        raise _non_finite(product) from None


def _non_finite(product: str) -> ValueError:
    return ValueError(
        f"randomized_tsvd: the product {product} is not finite;"
        " the operator holds a NaN or an infinity"
    )


def embedding_from_factors(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """ProNE's embedding post-processing: ``U * sqrt(s)``, l2-normalized."""
    emb = u * np.sqrt(np.maximum(s, 0.0))
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return emb / norms
