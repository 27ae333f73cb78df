"""Accounting-detail tests: result objects, stage bookkeeping, capacities."""

import numpy as np
import pytest

from repro.core import OMeGaConfig, OMeGaEmbedder, SpMMEngine
from repro.formats import edges_to_csdb
from repro.graphs import chung_lu_edges, rmat_edges
from repro.memsim import MemoryKind
from repro.prone.chebyshev import spmm_calls_for_order
from repro.prone.model import ProNEParams


@pytest.fixture(scope="module")
def graph():
    edges = chung_lu_edges(400, 3000, seed=5)
    return edges, edges_to_csdb(edges, 400)


class TestSpMMResultHelpers:
    def test_mean_hit_fraction_weighted_by_workload(self, graph, rng):
        _, csdb = graph
        engine = SpMMEngine(OMeGaConfig(n_threads=4, dim=8, sigma=0.2))
        result = engine.multiply(
            csdb, rng.standard_normal((400, 8)), compute=False
        )
        manual = sum(
            plan.hit_fraction * part.nnz_count
            for plan, part in zip(result.prefetch_plans, result.partitions)
        ) / csdb.nnz
        assert result.mean_hit_fraction == pytest.approx(manual)

    def test_thread_stats_derived_from_thread_times(self, graph, rng):
        _, csdb = graph
        engine = SpMMEngine(OMeGaConfig(n_threads=6, dim=8))
        result = engine.multiply(
            csdb, rng.standard_normal((400, 8)), compute=False
        )
        stats = result.thread_stats
        assert stats.n_threads == 6
        assert stats.maximum == pytest.approx(result.thread_times.max())

    def test_trace_byte_accounting(self, graph, rng):
        _, csdb = graph
        engine = SpMMEngine(OMeGaConfig(n_threads=4, dim=8))
        d = 8
        result = engine.multiply(
            csdb, rng.standard_normal((400, d)), compute=False
        )
        # The dense gathers move exactly W*d*8 bytes in total.
        assert result.trace.bytes_moved("get_dense_nnz") == pytest.approx(
            csdb.nnz * d * 8.0
        )


class TestPipelineBookkeeping:
    def test_spmm_call_count_matches_formula(self, graph):
        edges, _ = graph
        params = ProNEParams(dim=8, order=6, n_power_iterations=2)
        embedder = OMeGaEmbedder(
            OMeGaConfig(n_threads=2, dim=8), params=params
        )
        result = embedder.embed_edges(edges, 400)
        # tSVD: 1 range-finder + 2 per power iteration + 1 projection;
        # Chebyshev: the closed-form count.
        tsvd_calls = 1 + 2 * params.n_power_iterations + 1
        expected = tsvd_calls + spmm_calls_for_order(params.order)
        assert result.n_spmm == expected

    def test_stage_times_positive_and_ordered(self, graph):
        edges, _ = graph
        embedder = OMeGaEmbedder(OMeGaConfig(n_threads=4, dim=8))
        result = embedder.embed_edges(edges, 400)
        assert result.read_seconds > 0
        assert result.factorization_seconds > 0
        assert result.propagation_seconds > 0
        # Chebyshev order 10 involves more SpMM work than the tSVD here.
        assert result.propagation_seconds > result.factorization_seconds / 4

    def test_embedder_is_reusable(self, graph):
        edges, _ = graph
        embedder = OMeGaEmbedder(OMeGaConfig(n_threads=2, dim=8))
        first = embedder.embed_edges(edges, 400)
        second = embedder.embed_edges(edges, 400)
        assert np.array_equal(first.embedding, second.embedding)
        assert first.sim_seconds == pytest.approx(second.sim_seconds)
        assert second.n_spmm == first.n_spmm  # counters reset per run


    @pytest.mark.parametrize("scale", [9, 10, 11])
    def test_ledger_total_is_the_results(self, scale):
        # The ledger's total is what a resume reports as recovered; it
        # once summed (read + spmm) + serial and missed the result's
        # read + (spmm + serial) by an ulp (R-MAT-11 seed 2, 4 threads).
        for seed in range(6):
            edges = rmat_edges(scale, edge_factor=8.0, seed=seed)
            for n_threads in (1, 4, 8, 16):
                embedder = OMeGaEmbedder(
                    OMeGaConfig(n_threads=n_threads, dim=8, seed=seed)
                )
                result = embedder.embed_edges(edges, 1 << scale)
                assert embedder.state.sim_seconds == result.sim_seconds


class TestCapacityAccounting:
    def test_scaled_capacity_divides_exactly(self):
        engine = SpMMEngine(OMeGaConfig(capacity_scale=128))
        full = engine.topology.capacity(MemoryKind.PM)
        assert engine.scaled_capacity(MemoryKind.PM) == pytest.approx(
            full / 128
        )

    def test_stream_plan_partitions_never_exceed_dim(self, graph, rng):
        _, csdb = graph
        engine = SpMMEngine(
            OMeGaConfig(n_threads=4, dim=8, capacity_scale=10**9)
        )
        result = engine.multiply(
            csdb, rng.standard_normal((400, 8)), compute=False
        )
        assert 1 <= result.stream_plan.n_partitions <= 8

    def test_dram_headroom_bounds_stream_budget(self, graph, rng):
        _, csdb = graph

        def partitions(headroom):
            engine = SpMMEngine(
                OMeGaConfig(
                    n_threads=4,
                    dim=8,
                    dram_headroom=headroom,
                    capacity_scale=2 * 10**4,
                )
            )
            return engine.multiply(
                csdb, rng.standard_normal((400, 8)), compute=False
            ).stream_plan.n_partitions

        assert partitions(0.05) >= partitions(1.0)
