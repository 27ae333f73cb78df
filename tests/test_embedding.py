"""Tests for the end-to-end OMeGa embedding pipeline."""

import numpy as np
import pytest

from repro.core import MemoryMode, OMeGaConfig, OMeGaEmbedder, PlacementScheme
from repro.core.embedding import embedder_for_dataset
from repro.graphs import load_dataset
from repro.memsim import CapacityError
from repro.prone.model import ProNEParams


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("PK", scale=4096)


def make_embedder(dataset, **overrides):
    base = dict(n_threads=4, dim=8)
    base.update(overrides)
    return embedder_for_dataset(dataset, OMeGaConfig(**{k: v for k, v in base.items() if k in OMeGaConfig.__dataclass_fields__}))


class TestPipeline:
    def test_embed_dataset(self, dataset):
        result = make_embedder(dataset).embed_dataset(dataset)
        assert result.embedding.shape == (dataset.n_nodes, 8)
        assert result.sim_seconds > 0
        assert result.n_spmm > 10  # tSVD + Chebyshev chain
        assert result.wall_seconds > 0

    def test_sim_time_accounting_consistent(self, dataset):
        result = make_embedder(dataset).embed_dataset(dataset)
        stages = (
            result.read_seconds
            + result.factorization_seconds
            + result.propagation_seconds
        )
        assert result.sim_seconds == pytest.approx(stages, rel=1e-9)
        assert result.spmm_seconds < result.sim_seconds

    def test_spmm_dominates_runtime(self, dataset):
        """The paper's premise: SpMM is ~70% of ProNE's runtime."""
        result = make_embedder(dataset, n_threads=16).embed_dataset(dataset)
        assert result.spmm_fraction > 0.5

    def test_capacity_scale_mismatch_rejected(self, dataset):
        embedder = OMeGaEmbedder(OMeGaConfig(n_threads=2, dim=8))
        with pytest.raises(ValueError, match="capacity_scale"):
            embedder.embed_dataset(dataset)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            OMeGaEmbedder(
                OMeGaConfig(dim=8), params=ProNEParams(dim=16)
            )

    def test_embed_edges_equals_embed_dataset(self, dataset):
        a = make_embedder(dataset).embed_dataset(dataset)
        b = make_embedder(dataset).embed_edges(dataset.edges, dataset.n_nodes)
        assert np.array_equal(a.embedding, b.embedding)


class TestQualityPreservation:
    """§IV-B: OMeGa preserves ProNE's representation quality exactly."""

    def test_embedding_identical_across_memory_modes(self, dataset):
        results = {}
        for mode in MemoryMode:
            embedder = make_embedder(
                dataset,
                memory_mode=mode,
                prefetcher_enabled=mode is MemoryMode.HETEROGENEOUS,
            )
            results[mode] = embedder.embed_dataset(dataset).embedding
        baseline = results[MemoryMode.DRAM_ONLY]
        for emb in results.values():
            assert np.array_equal(emb, baseline)

    def test_embedding_identical_across_placements(self, dataset):
        embeddings = [
            make_embedder(dataset, placement=p).embed_dataset(dataset).embedding
            for p in PlacementScheme
        ]
        for emb in embeddings[1:]:
            assert np.array_equal(emb, embeddings[0])


def test_propagate_only_prior_equals_the_unbuffered_in_degree_count(skewed_csdb):
    """The default initial embedding scales by cached ``col_degrees()``;
    the ``np.add.at`` count it replaced is kept here as the oracle."""
    config = OMeGaConfig(n_threads=4, dim=8)
    degrees = np.zeros(skewed_csdb.n_rows, dtype=np.float64)
    np.add.at(degrees, skewed_csdb.col_list, 1.0)
    initial = np.random.default_rng(config.seed).standard_normal(
        (skewed_csdb.n_rows, 8)
    )
    initial *= np.sqrt(degrees + 1.0)[:, None]
    expected, expected_seconds = OMeGaEmbedder(config).propagate_only(
        skewed_csdb, initial
    )
    embedding, seconds = OMeGaEmbedder(config).propagate_only(skewed_csdb)
    assert embedding.tobytes() == expected.tobytes()
    assert seconds == expected_seconds


class TestSimulatedBehaviour:
    def test_dram_oom_on_scaled_capacity(self, dataset):
        # Shrink the simulated DRAM far below the pipeline working set.
        embedder = OMeGaEmbedder(
            OMeGaConfig(
                n_threads=4,
                dim=8,
                memory_mode=MemoryMode.DRAM_ONLY,
                capacity_scale=10**9,
            )
        )
        with pytest.raises(CapacityError):
            embedder.embed_edges(dataset.edges, dataset.n_nodes)

    def test_hm_survives_same_capacity_pressure(self, dataset):
        embedder = OMeGaEmbedder(
            OMeGaConfig(n_threads=4, dim=8, capacity_scale=10**6)
        )
        result = embedder.embed_edges(dataset.edges, dataset.n_nodes)
        assert result.sim_seconds > 0

    def test_mode_ordering(self, dataset):
        times = {}
        for mode in MemoryMode:
            embedder = make_embedder(
                dataset,
                memory_mode=mode,
                prefetcher_enabled=mode is MemoryMode.HETEROGENEOUS,
            )
            times[mode] = embedder.embed_dataset(dataset).sim_seconds
        assert (
            times[MemoryMode.DRAM_ONLY]
            < times[MemoryMode.HETEROGENEOUS]
            < times[MemoryMode.PM_ONLY]
        )

    def test_graph_read_csdb_faster_than_csr(self, dataset):
        """Fig. 19(a): the CSDB reading procedure beats CSR's."""
        embedder = make_embedder(dataset)
        csdb = embedder.simulate_graph_read(dataset.n_nodes, dataset.n_edges)
        csr = embedder.simulate_graph_read_csr(dataset.n_nodes, dataset.n_edges)
        assert 1.0 < csr / csdb < 3.0

    def test_trace_merges_spmm_categories(self, dataset):
        result = make_embedder(dataset).embed_dataset(dataset)
        assert result.trace.seconds("get_dense_nnz") > 0
        assert result.trace.seconds("graph_read") == pytest.approx(
            result.read_seconds
        )


class TestHelpers:
    def test_embedder_for_dataset_sets_scale(self, dataset):
        embedder = embedder_for_dataset(dataset)
        assert embedder.config.capacity_scale == dataset.scale

    def test_embedder_for_dataset_overrides(self, dataset):
        embedder = embedder_for_dataset(dataset, n_threads=2, dim=16)
        assert embedder.config.n_threads == 2
        assert embedder.config.dim == 16

    def test_pipeline_working_set_scales_with_graph(self, dataset):
        embedder = make_embedder(dataset)
        small = embedder.pipeline_working_set_bytes(1000, 10_000)
        large = embedder.pipeline_working_set_bytes(100_000, 1_000_000)
        assert large > 50 * small
