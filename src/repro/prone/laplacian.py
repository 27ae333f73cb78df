"""Graph-matrix transforms used by ProNE, expressed on CSDB matrices.

All transforms preserve or rebuild the CSDB block structure:

- :func:`row_l1_normalize` keeps the structure (only values change), so
  it is free of re-sorting;
- :func:`add_identity` changes the sparsity pattern (diagonal insertion)
  and therefore rebuilds the blocks;
- :func:`chebyshev_operator` has the pattern of ``A + I``, so given that
  matrix it only computes new values on the shared block structure.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csdb import CSDBMatrix


def row_l1_normalize(matrix: CSDBMatrix) -> CSDBMatrix:
    """Row-stochastic (random-walk) normalization D^-1 A.

    Rows with zero mass are left as zero rows.
    """
    degrees = matrix.row_degrees()
    if matrix.nnz == 0:
        return matrix.scale(1.0)
    nonzero = degrees > 0
    sums = np.add.reduceat(matrix.nnz_list, matrix.nnz_prefix()[:-1][nonzero])
    row_sum_per_nnz = np.repeat(
        np.where(sums != 0, sums, 1.0), degrees[nonzero]
    )
    return matrix.with_values(matrix.nnz_list / row_sum_per_nnz)


def add_identity(matrix: CSDBMatrix, scale: float = 1.0) -> CSDBMatrix:
    """``matrix + scale * I`` (rebuilds the degree blocks)."""
    if matrix.n_rows != matrix.n_cols:
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    n = matrix.n_rows
    diag = np.arange(n, dtype=np.int64)
    return CSDBMatrix.from_coo(
        np.concatenate([matrix.nnz_row_ids(), diag]),
        np.concatenate([matrix.col_list, diag]),
        np.concatenate([matrix.nnz_list, np.full(n, scale)]),
        matrix.shape,
    )


def chebyshev_operator(
    adjacency: CSDBMatrix,
    mu: float = 0.5,
    aggregate: CSDBMatrix | None = None,
) -> CSDBMatrix:
    """ProNE's shifted modified Laplacian ``M = L - mu*I``.

    With ``A' = I + A`` and ``DA = l1norm(A')``, the operator is
    ``M = (1 - mu) * I - DA``: the matrix repeatedly applied by the
    Chebyshev recurrence of the spectral-propagation stage.

    ``A'`` stores every diagonal entry, so ``M`` has exactly its pattern
    and is returned on its block structure; pass ``aggregate`` when
    ``add_identity(adjacency)`` is already at hand.
    """
    if adjacency.n_rows != adjacency.n_cols:
        raise ValueError(f"adjacency must be square, got {adjacency.shape}")
    if aggregate is None:
        aggregate = add_identity(adjacency)
    da = row_l1_normalize(aggregate)
    # Summed from zero like a COO build of (-DA, (1-mu)I) would.
    values = 0.0 - da.nnz_list
    values[da.col_list == da.nnz_row_ids()] += 1.0 - mu
    return da.with_values(values)
