"""Conversions between edge lists, CSR, CSDB and scipy sparse matrices.

scipy appears in two places: here, as the interop/validation boundary,
and inside :meth:`~repro.formats.csdb.CSDBMatrix.spmm_rows`, whose inner
loop is scipy's compiled CSR kernel run over zero-copy slices of the CSDB
arrays.  The formats themselves — degree blocks, Eq. 1 addressing, the
O(#degrees) index, CSR — are from scratch.
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
        edges: (m, 2) int array of endpoints.
        n_nodes: number of nodes |V|.
        weights: optional edge weights; defaults to 1 (the paper's
            initialization of ``nnz_list``).
        undirected: mirror each edge (the paper's graphs are undirected).
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must be (m, 2), got {edges.shape}")
    src, dst = edges[:, 0], edges[:, 1]
    if weights is None:
        weights = np.ones(len(edges), dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != len(edges):
            raise ValueError("weights length must match edges")
    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        weights = np.concatenate([weights, weights])
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
