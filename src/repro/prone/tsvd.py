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

- *inside* the power iterations the block only has to keep its range,
  so it is normalised through its k x k Gram matrix
  (:func:`tall_svd`'s left factor) — two GEMMs and a k x k ``eigh``; a
  direction whose singular value reads as 0 becomes a zero column;
- one Householder QR (``np.linalg.qr``) at the end makes the basis ``Q``
  orthonormal, also for zero and rank-deficient inputs, and C-ordered
  for the next ``rmatmul``;
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
    """
    eigenvalues, w = np.linalg.eigh(block.T @ block)
    # eigh sorts ascending; keep the leading pairs, descending.
    w = w[:, ::-1][:, :rank]
    s = np.sqrt(np.maximum(eigenvalues[::-1][:rank], 0.0))
    u = block @ w
    u *= np.divide(1.0, s, out=np.zeros_like(s), where=s > 0.0)
    return u, s, w


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


def embedding_from_factors(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """ProNE's embedding post-processing: ``U * sqrt(s)``, l2-normalized."""
    emb = u * np.sqrt(np.maximum(s, 0.0))
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return emb / norms
