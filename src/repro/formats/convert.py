"""Conversions between edge lists, CSR, CSDB and scipy sparse matrices.

scipy appears in two places: here, as the interop/validation boundary,
and inside :meth:`~repro.formats.csdb.CSDBMatrix.spmm_rows`, whose inner
loop is scipy's compiled CSR kernel run over zero-copy slices of the CSDB
arrays.  The formats themselves are from scratch, and so is the graph
read ``edges_to_csdb``: :meth:`CSDBMatrix.from_coo` places the edges
straight into degree blocks by the stable 16-bit radix passes CSR's build
uses (columns, then each row's rank in the block order; one pass per 16
bits of ``n_nodes``), with no CSR on the way, no comparison sort, no scipy.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.csdb import CSDBMatrix
from repro.formats.csr import CSRMatrix


def _edge_coo(
    edges: np.ndarray, n_nodes: int, weights: np.ndarray | None, undirected: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, tuple[int, int]]:
    """``(rows, cols, vals, shape)`` of a graph's adjacency; ``vals=None``: ones."""
    if n_nodes < 0:
        raise ValueError(f"n_nodes must be non-negative, got {n_nodes}")
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
        if weights.ndim != 1:
            raise ValueError(f"weights must be 1-D, got shape {weights.shape}")
        if len(weights) != len(edges):
            raise ValueError("weights length must match edges")
    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if weights is not None:
            weights = np.concatenate([weights, weights])
    return src, dst, weights, (n_nodes, n_nodes)


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
        weights: optional 1-D edge weights; defaults to 1 (the paper's
            initialization of ``nnz_list``).
        undirected: mirror each edge (the paper's graphs are undirected).
    """
    return CSRMatrix.from_coo(*_edge_coo(edges, n_nodes, weights, undirected))


def edges_to_csdb(
    edges: np.ndarray,
    n_nodes: int,
    weights: np.ndarray | None = None,
    undirected: bool = True,
) -> CSDBMatrix:
    """Build the adjacency matrix of a graph in CSDB format, with no CSR."""
    return CSDBMatrix.from_coo(*_edge_coo(edges, n_nodes, weights, undirected))


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
