"""Edge-path tests for the SpMM engine and embedding pipeline."""

import numpy as np
import pytest

from repro.core import (
    AllocationScheme,
    MemoryMode,
    OMeGaConfig,
    SpMMEngine,
)
from repro.memsim import NumaTopology


class TestSingleSocketTopology:
    def test_no_remote_traffic_on_one_socket(self, skewed_csdb, rng):
        topology = NumaTopology(n_sockets=1, cores_per_socket=36)
        engine = SpMMEngine(
            OMeGaConfig(n_threads=8, dim=8, topology=topology)
        )
        dense = rng.standard_normal((skewed_csdb.n_cols, 8))
        result = engine.multiply(skewed_csdb, dense, compute=False)
        # NaDP's merge fraction is 0 on one socket: no merge charge.
        assert result.trace.seconds("merge") == 0.0
        assert result.sim_seconds > 0

    def test_one_socket_vs_two_socket_contention(self, skewed_csdb, rng):
        dense = rng.standard_normal((skewed_csdb.n_cols, 8))

        def run(n_sockets):
            topology = NumaTopology(
                n_sockets=n_sockets, cores_per_socket=36 // n_sockets
            )
            engine = SpMMEngine(
                OMeGaConfig(n_threads=16, dim=8, topology=topology)
            )
            return engine.multiply(
                skewed_csdb, dense, compute=False
            ).sim_seconds

        # Two sockets double the aggregate DIMM bandwidth: with the same
        # thread count, the two-socket run must not be slower than ~the
        # single-socket one (remote stitch costs a little).
        assert run(2) < 1.3 * run(1)


class TestStreamingPaths:
    def test_streaming_disabled_exposes_full_load(self, skewed_csdb, rng):
        dense = rng.standard_normal((skewed_csdb.n_cols, 8))

        def run(streaming):
            engine = SpMMEngine(
                OMeGaConfig(
                    n_threads=4,
                    dim=8,
                    streaming_enabled=streaming,
                    capacity_scale=10**5,
                )
            )
            return engine.multiply(skewed_csdb, dense, compute=False)

        on = run(True)
        off = run(False)
        assert off.trace.seconds("stream_load") >= on.trace.seconds(
            "stream_load"
        )
        assert off.stream_plan is not None
        assert off.sim_seconds >= on.sim_seconds

    def test_pm_only_has_no_stream_plan(self, skewed_csdb, rng):
        engine = SpMMEngine(
            OMeGaConfig(
                n_threads=4,
                dim=8,
                memory_mode=MemoryMode.PM_ONLY,
                prefetcher_enabled=False,
            )
        )
        dense = rng.standard_normal((skewed_csdb.n_cols, 8))
        assert engine.multiply(
            skewed_csdb, dense, compute=False
        ).stream_plan is None


class TestAllocatorEnginGuards:
    def test_natural_rr_with_prefetcher_enabled_is_safe(
        self, skewed_csdb, rng
    ):
        """Non-contiguous partitions silently skip prefetch planning."""
        engine = SpMMEngine(
            OMeGaConfig(
                n_threads=4,
                dim=8,
                allocation=AllocationScheme.NATURAL_ROUND_ROBIN,
                prefetcher_enabled=True,
            )
        )
        dense = rng.standard_normal((skewed_csdb.n_cols, 8))
        result = engine.multiply(skewed_csdb, dense)
        assert result.mean_hit_fraction == 0.0
        assert np.allclose(result.output, skewed_csdb.spmm(dense))

    def test_kernel_slowdown_composes_with_modes(self, skewed_csdb, rng):
        dense = rng.standard_normal((skewed_csdb.n_cols, 8))
        for mode in MemoryMode:
            base = SpMMEngine(
                OMeGaConfig(
                    n_threads=4,
                    dim=8,
                    memory_mode=mode,
                    prefetcher_enabled=False,
                )
            ).multiply(skewed_csdb, dense, compute=False)
            slow = SpMMEngine(
                OMeGaConfig(
                    n_threads=4,
                    dim=8,
                    memory_mode=mode,
                    prefetcher_enabled=False,
                    kernel_slowdown=2.0,
                )
            ).multiply(skewed_csdb, dense, compute=False)
            assert slow.sim_seconds > base.sim_seconds


class TestConfigSurface:
    def test_with_overrides_round_trip(self):
        config = OMeGaConfig(n_threads=8)
        other = config.with_overrides(dim=64, prefetcher_enabled=False)
        assert other.dim == 64
        assert not other.prefetcher_enabled
        assert other.n_threads == 8
        assert config.dim == 32  # original untouched

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError, match="n_threads"):
            OMeGaConfig(n_threads=0)

    def test_invalid_headroom(self):
        with pytest.raises(ValueError, match="dram_headroom"):
            OMeGaConfig(dram_headroom=0.0)
