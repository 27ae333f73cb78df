"""End-to-end workflow on your own graph file.

Shows the full library surface a downstream user touches: parse a SNAP
edge list, build + persist the CSDB matrix, run the instrumented SpMM and
a CSDB transpose, embed with a chosen spectral filter, and evaluate
held-out link prediction — everything through the public API.

Run:  python examples/custom_graph_pipeline.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import OMeGaConfig, OMeGaEmbedder
from repro.core import SpMMEngine
from repro.eval import (
    link_prediction_auc,
    sample_negative_edges,
    train_test_edge_split,
)
from repro.formats import edges_to_csdb, load_csdb, save_csdb
from repro.graphs import load_edge_list, rmat_edges, save_edge_list
from repro.prone.model import ProNEParams


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="omega-demo-"))

    # 1. Pretend this R-MAT file is the user's own graph.
    graph_file = workdir / "my_graph.txt"
    save_edge_list(graph_file, rmat_edges(12, edge_factor=10, seed=9),
                   header="demo graph")
    edges, n_nodes = load_edge_list(graph_file)
    print(f"1. Parsed {graph_file.name}: {n_nodes:,} nodes, {len(edges):,} edges")

    # 2. Build the CSDB matrix once and persist it.
    matrix = edges_to_csdb(edges, n_nodes)
    matrix_file = workdir / "my_graph.csdb.npz"
    save_csdb(matrix_file, matrix)
    matrix = load_csdb(matrix_file)
    print(
        f"2. CSDB: {matrix.nnz:,} nnz in {matrix.n_blocks} degree blocks,"
        f" index = {matrix.index_bytes():,} B"
        f" (CSR would need {8 * (n_nodes + 1):,} B of row pointers alone)"
    )

    # 3. Operators: the instrumented SpMM (Algorithm 1) and a transpose.
    dense = np.random.default_rng(0).standard_normal((n_nodes, 16))
    spmm = SpMMEngine(OMeGaConfig(n_threads=16, dim=16)).multiply(matrix, dense)
    transpose = matrix.transpose()
    print(
        f"3. SpMM {spmm.sim_seconds * 1e3:.3f} ms simulated;"
        f" transpose has {transpose.nnz:,} nnz"
        f" in {transpose.n_blocks} degree blocks"
    )

    # 4. Embed with a non-default spectral filter.
    train, test = train_test_edge_split(edges, test_fraction=0.1, seed=0)
    embedder = OMeGaEmbedder(
        OMeGaConfig(n_threads=16, dim=32),
        params=ProNEParams(dim=32, order=8, spectral_filter="heat"),
    )
    result = embedder.embed_edges(train, n_nodes)
    print(
        f"4. Embedded with the heat-kernel filter in"
        f" {result.sim_seconds * 1e3:.1f} ms simulated"
        f" ({result.n_spmm} SpMM ops)"
    )

    # 5. Evaluate.
    negatives = sample_negative_edges(edges, n_nodes, len(test), seed=0)
    auc = link_prediction_auc(result.embedding, test, negatives)
    print(f"5. Held-out link prediction AUC = {auc:.3f}")
    print(f"\nArtifacts left in {workdir}")


if __name__ == "__main__":
    main()
