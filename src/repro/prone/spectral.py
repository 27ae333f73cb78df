"""Laplacian-eigenmaps embedding — a second MF-family model on the engine.

The paper's taxonomy (Fig. 2) groups ProNE with the matrix-factorization
methods; this module adds the classic spectral baseline of that family so
the library demonstrates model generality: embed nodes with the leading
singular vectors of the symmetrically normalized adjacency
``S = D^{-1/2} A D^{-1/2}`` (equivalently, the bottom eigenvectors of the
normalized Laplacian).  All products run through the same instrumentable
``matmul_factory`` as ProNE, so OMeGa's optimizations apply unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csdb import CSDBMatrix
from repro.prone.model import MatMulFactory, _plain_matmul_factory
from repro.prone.tsvd import embedding_from_factors, randomized_tsvd


def sym_normalize(matrix: CSDBMatrix) -> CSDBMatrix:
    """Symmetric normalization ``D^{-1/2} A D^{-1/2}``.

    Values change, structure is preserved (no re-sorting).  Zero-degree
    rows/columns keep zero entries.
    """
    original_rows = matrix.nnz_row_ids()
    degrees = np.bincount(
        original_rows, weights=matrix.nnz_list, minlength=matrix.n_rows
    )
    col_mass = np.bincount(
        matrix.col_list, weights=matrix.nnz_list, minlength=matrix.n_cols
    )
    with np.errstate(divide="ignore"):
        inv_sqrt_row = np.where(
            degrees > 0, 1.0 / np.sqrt(np.abs(degrees)), 0.0
        )
        inv_sqrt_col = np.where(
            col_mass > 0, 1.0 / np.sqrt(np.abs(col_mass)), 0.0
        )
    return matrix.with_values(
        matrix.nnz_list
        * inv_sqrt_row[original_rows]
        * inv_sqrt_col[matrix.col_list]
    )


def spectral_embed(
    adjacency: CSDBMatrix,
    dim: int = 32,
    n_oversamples: int = 8,
    n_power_iterations: int = 4,
    seed: int = 0,
    matmul_factory: MatMulFactory = _plain_matmul_factory,
) -> np.ndarray:
    """Laplacian-eigenmaps-style embedding via randomized tSVD of S.

    Power iterations sharpen toward the dominant spectrum of S (the
    smallest normalized-Laplacian eigenvalues).  Returns an l2-normalized
    (|V|, dim) embedding; isolated nodes embed to zero.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    s = sym_normalize(adjacency)
    st = s.transpose()
    u, singular_values, _ = randomized_tsvd(
        matmul_factory(s),
        matmul_factory(st),
        s.shape,
        rank=dim,
        n_oversamples=n_oversamples,
        n_power_iterations=n_power_iterations,
        seed=seed,
    )
    return embedding_from_factors(u, singular_values)
