"""Cross-model comparison tests: ProNE vs the walk baseline.

These pin down the *relative* behaviour of the embedding family the
library ships: all models recover planted structure, the MF models are
deterministic, and the instrumented pipeline charges every model's
products.
"""

import numpy as np
import pytest

from repro.baselines.deepwalk import DeepWalkEmbedder, DeepWalkParams
from repro.eval import node_classification_accuracy
from repro.formats import edges_to_csdb, edges_to_csr
from repro.graphs import planted_partition_edges
from repro.prone import prone_embed
from repro.prone.model import ProNEParams


@pytest.fixture(scope="module")
def community_graph():
    edges, labels = planted_partition_edges(
        500, 8000, n_communities=4, p_in=0.88, seed=12
    )
    return edges, labels


class TestAllModelsRecoverStructure:
    def test_prone(self, community_graph):
        edges, labels = community_graph
        emb = prone_embed(
            edges_to_csdb(edges, 500), ProNEParams(dim=16, order=8)
        )
        assert node_classification_accuracy(emb, labels, seed=0) > 0.7

    def test_deepwalk(self, community_graph):
        edges, labels = community_graph
        emb = DeepWalkEmbedder(
            DeepWalkParams(dim=16, walks_per_node=4, walk_length=15, epochs=2)
        ).embed(edges_to_csr(edges, 500))
        assert node_classification_accuracy(emb, labels, seed=0) > 0.5


class TestModelContracts:
    def test_mf_models_deterministic(self, community_graph):
        edges, _ = community_graph
        csdb = edges_to_csdb(edges, 500)
        assert np.array_equal(
            prone_embed(csdb, ProNEParams(dim=8, order=4, seed=3)),
            prone_embed(csdb, ProNEParams(dim=8, order=4, seed=3)),
        )

    def test_all_embeddings_unit_or_zero_norm(self, community_graph):
        edges, _ = community_graph
        csdb = edges_to_csdb(edges, 500)
        emb = prone_embed(csdb, ProNEParams(dim=8, order=4))
        norms = np.linalg.norm(emb, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms < 1e-12))
