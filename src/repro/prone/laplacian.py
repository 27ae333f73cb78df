"""Graph-matrix transforms used by ProNE, expressed on CSDB matrices.

Only one of them changes the sparsity pattern:

- :func:`row_l1_normalize` computes new values and returns a
  :meth:`~repro.formats.csdb.CSDBMatrix.with_values` sibling on the
  operand's pattern object;
- :func:`add_identity` inserts the diagonal, so its result stands on a
  pattern of its own.  Every row's run is already ordered by column:
  the rows are re-blocked by their new degrees (an n-sized ordering)
  and each run is scattered to its new offset with the diagonal in
  between, O(nnz) and without ordering a single non-zero;
- :func:`chebyshev_operator` has the pattern of ``A + I``, so given that
  matrix it is a sibling of it.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csdb import CSDBMatrix, degree_blocks


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
    """``matrix + scale * I`` (rebuilds the degree blocks).

    Array for array what ``from_coo`` of the entries followed by the
    diagonal builds (stored values summed from zero, then ``+ scale``).
    """
    if matrix.n_rows != matrix.n_cols:
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    n, nnz = matrix.n_rows, matrix.nnz
    degrees, starts = matrix.row_degrees(), matrix.nnz_prefix()
    # Per CSDB row: how many stored columns precede the diagonal, and
    # whether the entry at that offset already is the diagonal.
    below = np.zeros(nnz + 1, dtype=np.int64)
    np.cumsum(matrix.col_list < matrix.nnz_row_ids(), out=below[1:])
    lower = np.diff(below[starts])
    stored = lower < degrees
    stored[stored] = (
        matrix.col_list[(starts[:-1] + lower)[stored]] == matrix.perm[stored]
    )
    # Rows are re-blocked by their new degrees (n keys, no non-zero is
    # ordered); row i's run moves to its new offset as it is, its upper
    # part one further when a diagonal goes in between.
    new_degrees = np.empty(n, dtype=np.int64)
    new_degrees[matrix.perm] = degrees + ~stored
    perm, deg_list, deg_ind = degree_blocks(new_degrees)
    new_starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_degrees[perm], out=new_starts[1:])
    new_row = np.empty(n, dtype=np.int64)
    new_row[perm] = np.arange(n, dtype=np.int64)
    shift = new_starts[new_row[matrix.perm]] - starts[:-1]
    target = np.arange(nnz, dtype=np.int64) + np.repeat(
        np.stack([shift, shift + ~stored], axis=1).ravel(),
        np.stack([lower, degrees - lower], axis=1).ravel(),
    )
    diagonal = starts[:-1] + shift + lower
    col_list = np.empty(nnz + n - int(stored.sum()), dtype=np.int64)
    col_list[target] = matrix.col_list
    col_list[diagonal] = matrix.perm
    nnz_list = np.zeros(len(col_list), dtype=np.float64)
    nnz_list[target] = matrix.nnz_list + 0.0
    nnz_list[diagonal] += scale
    return CSDBMatrix(deg_list, deg_ind, col_list, nnz_list, perm, matrix.shape)


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
