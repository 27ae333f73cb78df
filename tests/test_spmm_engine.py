"""Unit and behavioural tests for the instrumented SpMM engine."""

import numpy as np
import pytest

from repro.core import (
    AllocationScheme,
    MemoryMode,
    OMeGaConfig,
    PlacementScheme,
    SpMMEngine,
)
from repro.memsim import CapacityError, MemoryKind
from repro.memsim.trace import SPMM_CATEGORIES


@pytest.fixture
def dense(skewed_csdb, rng):
    return rng.standard_normal((skewed_csdb.n_cols, 8))


def engine(**overrides):
    defaults = dict(n_threads=6, dim=8)
    defaults.update(overrides)
    return SpMMEngine(OMeGaConfig(**defaults))


class TestCorrectness:
    def test_output_matches_reference(self, skewed_csdb, dense):
        result = engine().multiply(skewed_csdb, dense)
        assert np.allclose(result.output, skewed_csdb.spmm(dense))

    def test_output_identical_across_all_knobs(self, skewed_csdb, dense):
        """OMeGa's optimizations are scheduling/placement only: results
        must be bit-identical across every configuration."""
        reference = None
        for mode in MemoryMode:
            for alloc in AllocationScheme:
                for placement in PlacementScheme:
                    result = engine(
                        memory_mode=mode,
                        allocation=alloc,
                        placement=placement,
                        prefetcher_enabled=mode is MemoryMode.HETEROGENEOUS,
                    ).multiply(skewed_csdb, dense)
                    if reference is None:
                        reference = result.output
                    else:
                        assert np.array_equal(result.output, reference)

    def test_vector_operand(self, skewed_csdb, rng):
        v = rng.standard_normal(skewed_csdb.n_cols)
        result = engine().multiply(skewed_csdb, v)
        assert result.output.shape == (skewed_csdb.n_rows, 1)
        assert np.allclose(result.output.ravel(), skewed_csdb.spmm(v))

    def test_compute_false_skips_numerics(self, skewed_csdb, dense):
        result = engine().multiply(skewed_csdb, dense, compute=False)
        assert result.output is None
        assert result.sim_seconds > 0

    def test_dimension_mismatch(self, skewed_csdb, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            engine().multiply(skewed_csdb, rng.standard_normal((3, 2)))


class TestSimulation:
    def test_all_algorithm1_categories_charged(self, skewed_csdb, dense):
        result = engine().multiply(skewed_csdb, dense, compute=False)
        for category in SPMM_CATEGORIES:
            assert result.trace.seconds(category) > 0.0

    def test_get_dense_nnz_dominates(self, skewed_csdb, dense):
        """Fig. 7(a): the scattered dense gathers dominate the cost."""
        result = engine().multiply(skewed_csdb, dense, compute=False)
        dense_cost = result.trace.seconds("get_dense_nnz")
        for category in SPMM_CATEGORIES:
            if category != "get_dense_nnz":
                assert result.trace.seconds(category) < dense_cost

    def test_thread_times_shape(self, skewed_csdb, dense):
        result = engine(n_threads=5).multiply(skewed_csdb, dense, compute=False)
        assert len(result.thread_times) == 5
        assert result.sim_seconds >= result.thread_times.max()

    def test_throughput_metric(self, skewed_csdb, dense):
        result = engine().multiply(skewed_csdb, dense, compute=False)
        assert result.throughput_nnz_per_s == pytest.approx(
            skewed_csdb.nnz / result.sim_seconds
        )

    def test_allocation_overhead_below_one_percent(self, skewed_csdb, dense):
        """§IV-C: thread allocation overhead is negligible."""
        result = engine().multiply(skewed_csdb, dense, compute=False)
        assert result.trace.seconds("allocation") < 0.01 * result.sim_seconds

    def test_prefetch_overhead_small(self, skewed_csdb, dense):
        """§IV-D: EaTA+WoFP overhead averages below ~3% of runtime."""
        result = engine().multiply(skewed_csdb, dense, compute=False)
        overhead = result.trace.seconds("prefetch") + result.trace.seconds(
            "allocation"
        )
        assert overhead < 0.15 * result.trace.total_seconds


class TestMemoryModes:
    def test_dram_fastest_pm_slowest(self, skewed_csdb, dense):
        times = {}
        for mode in MemoryMode:
            times[mode] = engine(
                memory_mode=mode,
                prefetcher_enabled=mode is MemoryMode.HETEROGENEOUS,
            ).multiply(skewed_csdb, dense, compute=False).sim_seconds
        assert times[MemoryMode.DRAM_ONLY] < times[MemoryMode.HETEROGENEOUS]
        assert (
            times[MemoryMode.HETEROGENEOUS] < times[MemoryMode.PM_ONLY]
        )

    def test_pm_gap_is_orders_of_magnitude(self, skewed_csdb, dense):
        hm = engine().multiply(skewed_csdb, dense, compute=False).sim_seconds
        pm = engine(
            memory_mode=MemoryMode.PM_ONLY, prefetcher_enabled=False
        ).multiply(skewed_csdb, dense, compute=False).sim_seconds
        assert pm > 10 * hm

    def test_hm_narrows_gap_toward_dram(self, skewed_csdb, dense):
        """OMeGa lands within a small factor of the DRAM ideal."""
        hm = engine().multiply(skewed_csdb, dense, compute=False).sim_seconds
        dram = engine(memory_mode=MemoryMode.DRAM_ONLY).multiply(
            skewed_csdb, dense, compute=False
        ).sim_seconds
        assert hm < 4 * dram

    def test_dram_capacity_error(self, skewed_csdb, dense):
        # Scale DRAM down so the working set cannot fit.
        with pytest.raises(CapacityError):
            engine(
                memory_mode=MemoryMode.DRAM_ONLY, capacity_scale=10**9
            ).multiply(skewed_csdb, dense)

    def test_hm_is_capacity_robust(self, skewed_csdb, dense):
        # The same scale works on heterogeneous memory (PM capacity).
        result = engine(capacity_scale=10**6).multiply(
            skewed_csdb, dense, compute=False
        )
        assert result.sim_seconds > 0


class TestOptimizationKnobs:
    def test_wofp_helps_on_hm(self, skewed_csdb, dense):
        with_wofp = engine().multiply(skewed_csdb, dense, compute=False)
        without = engine(prefetcher_enabled=False).multiply(
            skewed_csdb, dense, compute=False
        )
        assert without.sim_seconds > with_wofp.sim_seconds
        assert with_wofp.mean_hit_fraction > 0.2

    def test_wofp_disabled_outside_hm(self, skewed_csdb, dense):
        result = engine(memory_mode=MemoryMode.DRAM_ONLY).multiply(
            skewed_csdb, dense, compute=False
        )
        assert result.mean_hit_fraction == 0.0

    def test_nadp_beats_interleave(self, skewed_csdb, dense):
        nadp = engine().multiply(skewed_csdb, dense, compute=False)
        interleave = engine(placement=PlacementScheme.INTERLEAVE).multiply(
            skewed_csdb, dense, compute=False
        )
        assert interleave.sim_seconds > nadp.sim_seconds

    def test_eata_beats_rr(self, skewed_csdb, dense):
        eata = engine(n_threads=12).multiply(skewed_csdb, dense, compute=False)
        rr = engine(
            n_threads=12, allocation=AllocationScheme.ROUND_ROBIN
        ).multiply(skewed_csdb, dense, compute=False)
        assert rr.sim_seconds > eata.sim_seconds

    def test_eata_tail_latency_beats_wata(self, skewed_csdb, dense):
        eata = engine(n_threads=12).multiply(skewed_csdb, dense, compute=False)
        wata = engine(
            n_threads=12, allocation=AllocationScheme.WORKLOAD_BALANCED
        ).multiply(skewed_csdb, dense, compute=False)
        assert eata.thread_stats.std <= wata.thread_stats.std

    def test_asl_streaming_reduces_exposed_time(self, skewed_csdb, dense):
        streamed = engine(capacity_scale=10**6).multiply(
            skewed_csdb, dense, compute=False
        )
        unstreamed = engine(
            capacity_scale=10**6, streaming_enabled=False
        ).multiply(skewed_csdb, dense, compute=False)
        assert (
            unstreamed.trace.seconds("stream_load")
            >= streamed.trace.seconds("stream_load")
        )

    def test_stream_plan_present_only_on_hm(self, skewed_csdb, dense):
        assert engine().multiply(
            skewed_csdb, dense, compute=False
        ).stream_plan is not None
        assert engine(memory_mode=MemoryMode.DRAM_ONLY).multiply(
            skewed_csdb, dense, compute=False
        ).stream_plan is None


class TestScaledCapacity:
    def test_scaled_capacity(self):
        e = engine(capacity_scale=4)
        full = engine(capacity_scale=1)
        assert e.scaled_capacity(MemoryKind.DRAM) == pytest.approx(
            full.scaled_capacity(MemoryKind.DRAM) / 4
        )
