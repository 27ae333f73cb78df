"""Shared-memory executor: bit-identity, crash safety, config plumbing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExecBackend,
    OMeGaConfig,
    ParallelConfig,
    SpMMEngine,
)
from repro.formats import CSDBMatrix, edges_to_csdb
from repro.graphs import rmat_edges
from repro.parallel import (
    SharedMemoryExecutor,
    SimulatedExecutor,
    ThreadsExecutor,
    WorkerCrashError,
    get_shared_executor,
    shutdown_shared_executors,
)


@pytest.fixture(scope="module", autouse=True)
def _close_pools():
    yield
    shutdown_shared_executors()


def _rmat_csdb(scale: int, seed: int) -> CSDBMatrix:
    edges = rmat_edges(scale, edge_factor=6.0, seed=seed)
    return edges_to_csdb(edges, 1 << scale)


def _serial_reference(matrix, dense, ranges):
    return SimulatedExecutor().run_partitions(matrix, dense, ranges)


class TestBitIdentity:
    """Parallel output must equal serial output bit for bit."""

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        scale=st.integers(min_value=6, max_value=8),
        n_workers=st.sampled_from([1, 2, 4]),
        d=st.sampled_from([1, 3, 8]),
        n_cuts=st.integers(min_value=0, max_value=6),
    )
    def test_property_matches_serial(self, seed, scale, n_workers, d, n_cuts):
        matrix = _rmat_csdb(scale, seed)
        rng = np.random.default_rng(seed + 1)
        dense = rng.standard_normal((matrix.n_cols, d))
        # Odd partition shapes on purpose: duplicated cut points produce
        # empty partitions, adjacent cuts produce single-row partitions.
        cuts = sorted(
            rng.integers(0, matrix.n_rows + 1, size=n_cuts).tolist()
        )
        bounds = [0, *cuts, matrix.n_rows]
        ranges = list(zip(bounds[:-1], bounds[1:]))
        expected = _serial_reference(matrix, dense, ranges)

        pool = get_shared_executor(n_workers)
        out = pool.run_partitions(matrix, dense, ranges)
        assert np.array_equal(out, expected)

    def test_single_row_partitions(self):
        matrix = _rmat_csdb(6, seed=3)
        dense = np.random.default_rng(0).standard_normal((matrix.n_cols, 4))
        ranges = [(i, i + 1) for i in range(matrix.n_rows)]
        expected = _serial_reference(matrix, dense, ranges)
        pool = get_shared_executor(2)
        out = pool.run_partitions(matrix, dense, ranges)
        assert np.array_equal(out, expected)

    def test_partial_coverage_zeroes_uncovered_rows(self):
        matrix = _rmat_csdb(6, seed=4)
        dense = np.random.default_rng(1).standard_normal((matrix.n_cols, 2))
        ranges = [(0, matrix.n_rows // 2)]
        expected = _serial_reference(matrix, dense, ranges)
        pool = get_shared_executor(2)
        out = pool.run_partitions(matrix, dense, ranges)
        assert np.array_equal(out, expected)

    def test_no_ranges_zeroes_output(self):
        matrix = _rmat_csdb(6, seed=5)
        dense = np.zeros((matrix.n_cols, 2))
        pool = get_shared_executor(2)
        out = pool.run_partitions(matrix, dense, [])
        assert np.array_equal(out, np.zeros((matrix.n_rows, 2)))


class TestCrashSafety:
    def test_worker_crash_raises_typed_error_and_releases_memory(self):
        matrix = _rmat_csdb(6, seed=7)
        dense = np.random.default_rng(3).standard_normal((matrix.n_cols, 3))
        pool = SharedMemoryExecutor(n_workers=2, call_timeout_s=30.0)
        pool.run_partitions(matrix, dense, [(0, matrix.n_rows)])
        segment_names = [
            spec.name
            for entry in pool._matrices.values()
            for spec in entry[1].handle.specs
        ] + [seg.segment.name for seg in pool._scratch.values()]
        assert segment_names

        with pytest.raises(WorkerCrashError, match="died"):
            pool.run_partitions(
                matrix, dense, [(0, matrix.n_rows)], _inject_crash=True
            )
        assert pool.closed
        from multiprocessing import shared_memory

        for name in segment_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

        with pytest.raises(WorkerCrashError, match="closed"):
            pool.run_partitions(matrix, dense, [(0, 1)])

    def test_registry_replaces_crashed_pool(self):
        matrix = _rmat_csdb(6, seed=8)
        dense = np.zeros((matrix.n_cols, 2))
        pool = get_shared_executor(3)
        with pytest.raises(WorkerCrashError):
            pool.run_partitions(
                matrix, dense, [(0, 1)], _inject_crash=True
            )
        fresh = get_shared_executor(3)
        assert fresh is not pool and not fresh.closed
        out = fresh.run_partitions(matrix, dense, [(0, matrix.n_rows)])
        assert np.array_equal(out, np.zeros((matrix.n_rows, 2)))

    def test_close_is_idempotent(self):
        pool = SharedMemoryExecutor(n_workers=1)
        pool.close()
        pool.close()
        assert pool.closed


class TestEngineDispatch:
    def _engines(self, n_workers=2, **overrides):
        base = dict(n_threads=4, dim=8, **overrides)
        # Explicit simulated backend: the smoke CI jobs flip the
        # process-wide default via REPRO_EXEC_BACKEND, and this class
        # asserts on executor *types*.
        sim = SpMMEngine(
            OMeGaConfig(
                **base,
                parallel=ParallelConfig(backend=ExecBackend.SIMULATED),
            )
        )
        shm = SpMMEngine(
            OMeGaConfig(
                **base,
                parallel=ParallelConfig(
                    backend=ExecBackend.SHARED_MEMORY, n_workers=n_workers
                ),
            )
        )
        return sim, shm

    def test_backend_selection(self):
        sim, shm = self._engines()
        assert isinstance(sim.kernel_executor, SimulatedExecutor)
        assert isinstance(shm.kernel_executor, SharedMemoryExecutor)
        # The dataclass default (no environment involved) is the pool
        # of threads.
        default = SpMMEngine(
            OMeGaConfig(n_threads=4, dim=8, parallel=ParallelConfig())
        )
        assert isinstance(default.kernel_executor, ThreadsExecutor)

    def test_multiply_bit_identical_and_same_sim_time(self):
        matrix = _rmat_csdb(8, seed=9)
        dense = np.random.default_rng(4).standard_normal((matrix.n_cols, 8))
        sim, shm = self._engines()
        a = sim.multiply(matrix, dense)
        b = shm.multiply(matrix, dense)
        assert np.array_equal(a.output, b.output)
        assert a.sim_seconds == b.sim_seconds
        assert b.kernel_wall_seconds > 0.0

    def test_natural_order_allocation_falls_back_to_serial_pass(self):
        # Non-contiguous partitions are a costing construct; both
        # backends compute them in one serial pass.
        from repro.core import AllocationScheme

        matrix = _rmat_csdb(7, seed=10)
        dense = np.random.default_rng(5).standard_normal((matrix.n_cols, 4))
        sim, shm = self._engines(
            allocation=AllocationScheme.NATURAL_ROUND_ROBIN
        )
        a = sim.multiply(matrix, dense)
        b = shm.multiply(matrix, dense)
        assert np.array_equal(a.output, b.output)

    def test_compute_false_reports_zero_wall(self):
        matrix = _rmat_csdb(6, seed=11)
        dense = np.zeros((matrix.n_cols, 2))
        _, shm = self._engines()
        result = shm.multiply(matrix, dense, compute=False)
        assert result.output is None
        assert result.kernel_wall_seconds == 0.0


class TestParallelConfig:
    def test_env_default_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "shared_memory")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        parallel = ParallelConfig.default()
        assert parallel.backend is ExecBackend.SHARED_MEMORY
        assert parallel.n_workers == 3
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "simulated")
        assert ParallelConfig.default().backend is ExecBackend.SIMULATED
        monkeypatch.delenv("REPRO_EXEC_BACKEND")
        monkeypatch.delenv("REPRO_WORKERS")
        assert ParallelConfig.default() == ParallelConfig(
            backend=ExecBackend.THREADS, n_workers=2
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="n_workers"):
            ParallelConfig(n_workers=0)


class TestReleaseSweep:
    """Teardown must unlink every owned segment even on a double fault."""

    class _Stub:
        def __init__(self, log, name, fail=False):
            self.log, self.name, self.fail = log, name, fail

        def _touch(self):
            if self.fail:
                raise RuntimeError(f"{self.name} refused to close")
            self.log.append(self.name)

        def close(self):
            self._touch()

        def release(self):
            self._touch()

    def _loaded_executor(self, log, failing: str):
        executor = SharedMemoryExecutor(n_workers=1)
        stub = lambda name: self._Stub(log, name, fail=(name == failing))
        executor._matrices = {
            1: (lambda: None, stub("matrix-a")),
            2: (lambda: None, stub("matrix-b")),
        }
        executor._scratch = {"dense": stub("scratch-dense")}
        return executor

    def test_one_failure_does_not_stop_the_sweep(self, monkeypatch):
        import repro.parallel.shared as shared_module

        log: list[str] = []
        executor = self._loaded_executor(log, failing="matrix-a")
        executor._retired = ["retired-a", "retired-b"]
        unlinked: list[str] = []
        monkeypatch.setattr(
            shared_module, "unlink_segment", unlinked.append
        )
        with pytest.raises(RuntimeError, match="matrix-a refused"):
            executor.close()
        # Every other segment was still released and unlinked...
        assert log == ["matrix-b", "scratch-dense"]
        assert unlinked == ["retired-a", "retired-b"]
        # ...and the bookkeeping is empty, so a retry cannot double-free.
        assert executor._matrices == {}
        assert executor._scratch == {}
        assert executor._retired == []

    def test_first_failure_wins(self, monkeypatch):
        import repro.parallel.shared as shared_module

        log: list[str] = []
        executor = self._loaded_executor(log, failing="matrix-a")
        executor._scratch["out"] = self._Stub(
            log, "scratch-out", fail=True
        )
        monkeypatch.setattr(
            shared_module, "unlink_segment", lambda name: None
        )
        with pytest.raises(RuntimeError, match="matrix-a refused"):
            executor.close()

    def test_fail_path_keeps_the_worker_crash_error(self):
        log: list[str] = []
        executor = self._loaded_executor(log, failing="matrix-a")
        executor._retired = []
        error = executor._fail("worker died")
        # The release failure is swept, not allowed to mask the crash.
        assert isinstance(error, WorkerCrashError)
        assert log == ["matrix-b", "scratch-dense"]
        assert executor.closed

    def test_clean_close_leaves_no_segments(self):
        matrix = _rmat_csdb(6, seed=5)
        dense = np.ones((matrix.n_cols, 2))
        executor = SharedMemoryExecutor(n_workers=1)
        ranges = ((0, matrix.n_rows),)
        executor.run_partitions(matrix, dense, ranges)
        names = [executor._prefix]
        names += [seg.segment.name for seg in executor._scratch.values()]
        executor.close()
        import pathlib

        leaked = [
            p.name
            for p in pathlib.Path("/dev/shm").glob(f"*{executor._prefix}*")
        ]
        assert leaked == []
