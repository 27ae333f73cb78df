"""Conversions between edge lists, CSR, CSDB and scipy sparse matrices.

scipy appears in two places: here, as the interop/validation boundary,
and inside :meth:`~repro.formats.csdb.CSDBMatrix.spmm_rows`, whose inner
loop is scipy's compiled CSR kernel run over zero-copy slices of the CSDB
arrays.  The formats themselves — degree blocks, Eq. 1 addressing, the
O(#degrees) index, CSR — are from scratch, and so is the graph-read path
``edges_to_csdb``: the edge list is ordered by the stable 16-bit radix
passes of :meth:`CSRMatrix.from_coo` (one per 16 bits of ``n_nodes``, for
columns and for rows), never by a comparison sort and never by scipy.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.csdb import CSDBMatrix
from repro.formats.csr import CSRMatrix


def edges_to_csr(
    edges: np.ndarray,
    n_nodes: int,
    weights: np.ndarray | None = None,
    undirected: bool = True,
) -> CSRMatrix:
    """Build the adjacency matrix of a graph as a CSR matrix.

    Args:
        edges: (m, 2) array of endpoints; integer-valued floats are
            accepted, any other non-integer raises ``ValueError``.
        n_nodes: number of nodes |V|.
        weights: optional edge weights; defaults to 1 (the paper's
            initialization of ``nnz_list``).
        undirected: mirror each edge (the paper's graphs are undirected).
    """
    edges = np.asarray(edges)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must be (m, 2), got {edges.shape}")
    if not np.issubdtype(edges.dtype, np.integer):
        # Integer-valued floats are node ids; the cast below would
        # silently truncate anything else (0.5 -> node 0).
        with np.errstate(invalid="ignore"):
            fractional = np.flatnonzero(np.mod(edges, 1) != 0)
        if len(fractional):
            raise ValueError(
                "node ids must be integral, got"
                f" {edges.flat[fractional[0]]!r} in edge {fractional[0] // 2}"
            )
    edges = edges.astype(np.int64, copy=False)
    src, dst = edges[:, 0], edges[:, 1]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != len(edges):
            raise ValueError("weights length must match edges")
    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if weights is not None:
            weights = np.concatenate([weights, weights])
    if weights is None:
        weights = np.ones(len(src), dtype=np.float64)
    return CSRMatrix.from_coo(src, dst, weights, (n_nodes, n_nodes))


def edges_to_csdb(
    edges: np.ndarray,
    n_nodes: int,
    weights: np.ndarray | None = None,
    undirected: bool = True,
) -> CSDBMatrix:
    """Build the adjacency matrix of a graph in CSDB format."""
    return CSDBMatrix.from_csr(
        edges_to_csr(edges, n_nodes, weights, undirected)
    )


def csr_to_scipy(matrix: CSRMatrix) -> sp.csr_matrix:
    """Export a from-scratch CSR matrix as ``scipy.sparse.csr_matrix``."""
    return sp.csr_matrix(
        (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape
    )


def csr_from_scipy(matrix: sp.spmatrix) -> CSRMatrix:
    """Import a scipy sparse matrix as a from-scratch CSR matrix."""
    csr = sp.csr_matrix(matrix)
    csr.sum_duplicates()
    return CSRMatrix(
        csr.indptr.astype(np.int64),
        csr.indices.astype(np.int64),
        csr.data.astype(np.float64),
        csr.shape,
    )


def csdb_to_scipy(matrix: CSDBMatrix) -> sp.csr_matrix:
    """Export a CSDB matrix as ``scipy.sparse.csr_matrix``."""
    return csr_to_scipy(matrix.to_csr())


def csdb_from_scipy(matrix: sp.spmatrix) -> CSDBMatrix:
    """Import a scipy sparse matrix as a CSDB matrix."""
    return CSDBMatrix.from_csr(csr_from_scipy(matrix))
