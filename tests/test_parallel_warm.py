"""Warm-path executor behavior: segment cache, invalidation, threads.

Covers the warm-path contract shared by the real backends:

- bit-identity across the full backend × worker matrix on seeded
  R-MATs (the serial kernel is the reference);
- persistent segment-cache reuse across repeated ``multiply()`` calls
  (same shared segments, hit counters advancing, no re-staging);
- explicit invalidation after in-place matrix mutation
  (``mark_mutated`` → fresh pattern → executor re-shares), and one
  shared copy per instance, ``with_values`` siblings included;
- crash during a *cached* call still tears down leak-free;
- fork safety: a forked child abandons inherited pools and the parent
  keeps working;
- the threads backend's in-process failure semantics.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

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
    get_threads_executor,
    shutdown_shared_executors,
    shutdown_threads_executors,
)


@pytest.fixture(scope="module", autouse=True)
def _close_pools():
    yield
    shutdown_shared_executors()
    shutdown_threads_executors()


def _rmat_csdb(scale: int, seed: int, edge_factor: float = 6.0) -> CSDBMatrix:
    edges = rmat_edges(scale, edge_factor=edge_factor, seed=seed)
    return edges_to_csdb(edges, 1 << scale)


def _serial(matrix, dense, ranges):
    out = np.empty((matrix.n_rows, dense.shape[1]))
    SimulatedExecutor().run_partitions(matrix, dense, ranges, out)
    return out


def _ranges(matrix, n_parts: int):
    bounds = np.linspace(0, matrix.n_rows, n_parts + 1).astype(int)
    return list(zip(bounds[:-1], bounds[1:]))


class TestTiledKernel:
    """The fused kernel is range-invariant and matches the CSR reference."""

    @pytest.mark.parametrize("d", [1, 3, 32, 33, 64])
    def test_matches_csr_reference(self, d):
        matrix = _rmat_csdb(8, seed=21)
        dense = np.random.default_rng(d).standard_normal((matrix.n_cols, d))
        expected = matrix.to_csr().spmm(dense)
        got = matrix.spmm(dense)
        assert np.allclose(got, expected)

    @pytest.mark.parametrize("budget", [4096, 1 << 16, 1 << 20, 1 << 30])
    def test_budget_never_changes_bits(self, budget):
        """Row ranges cut at any nnz budget stack to the one-shot bits.

        ``budget`` is the byte size an unfused kernel's gather of a
        range would have (16 B * d per non-zero): 4096 cuts hub rows
        into ranges of their own, 1 << 30 leaves a single range.
        """
        matrix = _rmat_csdb(8, seed=22)
        d = 48
        dense = np.random.default_rng(0).standard_normal((matrix.n_cols, d))
        reference = matrix.spmm_rows(dense, 0, matrix.n_rows)
        prefix = matrix.nnz_prefix()
        parts, cursor = [], 0
        while cursor < matrix.n_rows:
            target = prefix[cursor] + budget // (16 * d)
            nxt = int(np.searchsorted(prefix, target, side="right")) - 1
            nxt = min(max(nxt, cursor + 1), matrix.n_rows)
            parts.append(matrix.spmm_rows(dense, cursor, nxt))
            cursor = nxt
        assert np.array_equal(np.vstack(parts), reference)

    def test_partitioned_tiling_bit_identical(self):
        matrix = _rmat_csdb(8, seed=23)
        dense = np.random.default_rng(1).standard_normal((matrix.n_cols, 40))
        full = matrix.spmm_rows(dense, 0, matrix.n_rows)
        cut = matrix.n_rows // 3
        parts = np.vstack(
            [
                matrix.spmm_rows(dense, 0, cut),
                matrix.spmm_rows(dense, cut, matrix.n_rows),
            ]
        )
        assert np.array_equal(full, parts)


class TestBackendMatrix:
    """serial × shared_memory × threads agree bitwise, workers 1/2/4."""

    @pytest.mark.parametrize("backend", ["shared_memory", "threads"])
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_bit_identity(self, backend, n_workers):
        for seed, scale, d in ((31, 7, 5), (32, 8, 16)):
            matrix = _rmat_csdb(scale, seed=seed)
            dense = np.random.default_rng(seed).standard_normal(
                (matrix.n_cols, d)
            )
            ranges = _ranges(matrix, 5)
            expected = _serial(matrix, dense, ranges)
            pool = (
                get_shared_executor(n_workers)
                if backend == "shared_memory"
                else get_threads_executor(n_workers)
            )
            out = np.empty_like(expected)
            # Twice: the second call rides the warm path.
            for _ in range(2):
                pool.run_partitions(matrix, dense, ranges, out)
                assert np.array_equal(out, expected)

    @pytest.mark.parametrize(
        "backend", [ExecBackend.SHARED_MEMORY, ExecBackend.THREADS]
    )
    def test_engine_multiply_matches_serial(self, backend):
        matrix = _rmat_csdb(8, seed=33)
        dense = np.random.default_rng(2).standard_normal((matrix.n_cols, 8))
        base = dict(n_threads=4, dim=8)
        serial = SpMMEngine(OMeGaConfig(**base)).multiply(matrix, dense)
        engine = SpMMEngine(
            OMeGaConfig(
                **base,
                parallel=ParallelConfig(backend=backend, n_workers=2),
            )
        )
        first = engine.multiply(matrix, dense)
        second = engine.multiply(matrix, dense)  # warm
        assert np.array_equal(first.output, serial.output)
        assert np.array_equal(second.output, serial.output)
        assert first.sim_seconds == serial.sim_seconds


class TestSegmentCacheReuse:
    def test_repeated_calls_reuse_segments_and_count_hits(self):
        matrix = _rmat_csdb(7, seed=41)
        dense = np.random.default_rng(3).standard_normal((matrix.n_cols, 4))
        pool = SharedMemoryExecutor(n_workers=2)
        try:
            ranges = _ranges(matrix, 4)
            out = np.empty((matrix.n_rows, 4))
            pool.run_partitions(matrix, dense, ranges, out)
            assert pool.stats.shared_cache_misses == 1
            names_after_first = sorted(
                spec.name
                for entry in pool._matrices.values()
                for spec in entry[1].handle.specs
            )
            scratch_after_first = sorted(
                seg.segment.name for seg in pool._scratch.values()
            )
            for i in range(3):
                pool.run_partitions(matrix, dense, ranges, out)
                assert pool.stats.shared_cache_hits == 1 + i
            # Same segments, no re-staging, nothing retired.
            assert names_after_first == sorted(
                spec.name
                for entry in pool._matrices.values()
                for spec in entry[1].handle.specs
            )
            assert scratch_after_first == sorted(
                seg.segment.name for seg in pool._scratch.values()
            )
            assert pool.stats.shared_cache_misses == 1
            assert pool._retired == []
        finally:
            pool.close()

    def test_batched_submission_one_plan_per_worker(self):
        matrix = _rmat_csdb(7, seed=42)
        dense = np.ones((matrix.n_cols, 2))
        pool = SharedMemoryExecutor(n_workers=3)
        try:
            out = np.empty((matrix.n_rows, 2))
            pool.run_partitions(matrix, dense, _ranges(matrix, 8), out)
            # 8 partitions, 3 workers -> exactly 3 plans, not 8 enqueues.
            assert pool.stats.plans == 3
            assert pool.stats.partitions == 8
            assert pool.stats.last_submit_wall_s > 0.0
            assert pool.stats.last_call_wall_s >= pool.stats.last_submit_wall_s
        finally:
            pool.close()

    def test_dense_changes_are_picked_up_on_the_warm_path(self):
        # The matrix segments are cached; the dense operand is re-copied
        # every call — a Chebyshev iteration changes it each time.
        matrix = _rmat_csdb(7, seed=43)
        pool = SharedMemoryExecutor(n_workers=2)
        try:
            ranges = _ranges(matrix, 4)
            out = np.empty((matrix.n_rows, 3))
            for seed in (0, 1, 2):
                dense = np.random.default_rng(seed).standard_normal(
                    (matrix.n_cols, 3)
                )
                pool.run_partitions(matrix, dense, ranges, out)
                assert np.array_equal(out, _serial(matrix, dense, ranges))
        finally:
            pool.close()


class TestInvalidation:
    def test_siblings_get_separate_shared_copies(self):
        """The cache key is the instance: siblings share a pattern, not values."""
        matrix = _rmat_csdb(7, seed=51)
        sibling = matrix.with_values(
            np.random.default_rng(5).standard_normal(matrix.nnz)
        )
        assert sibling.pattern is matrix.pattern
        dense = np.random.default_rng(6).standard_normal((matrix.n_cols, 4))
        pool = SharedMemoryExecutor(n_workers=2)
        try:
            ranges = _ranges(matrix, 4)
            out = np.empty((matrix.n_rows, 4))
            for operand in (matrix, sibling, matrix, sibling):
                pool.run_partitions(operand, dense, ranges, out)
                assert np.array_equal(out, _serial(operand, dense, ranges))
            assert pool.stats.shared_cache_misses == 2
            assert pool.stats.shared_cache_hits == 2
            assert pool.stats.invalidations == 0
        finally:
            pool.close()

    def test_mutation_reshapes_the_shared_copy(self):
        matrix = _rmat_csdb(7, seed=52)
        dense = np.random.default_rng(4).standard_normal((matrix.n_cols, 4))
        pool = SharedMemoryExecutor(n_workers=2)
        try:
            ranges = _ranges(matrix, 4)
            out = np.empty((matrix.n_rows, 4))
            pool.run_partitions(matrix, dense, ranges, out)
            stale_names = [
                spec.name
                for entry in pool._matrices.values()
                for spec in entry[1].handle.specs
            ]
            # In-place reweighting, announced: the next call must not
            # serve results from the stale shared copy.
            matrix.nnz_list *= 0.5
            matrix.mark_mutated()
            pool.run_partitions(matrix, dense, ranges, out)
            assert pool.stats.invalidations == 1
            assert np.array_equal(out, _serial(matrix, dense, ranges))
            fresh_names = [
                spec.name
                for entry in pool._matrices.values()
                for spec in entry[1].handle.specs
            ]
            assert set(stale_names).isdisjoint(fresh_names)
            # A further unmutated call rides the new cached copy.
            pool.run_partitions(matrix, dense, ranges, out)
            assert pool.stats.invalidations == 1
            assert pool.stats.shared_cache_hits >= 1
        finally:
            pool.close()
        from multiprocessing import shared_memory

        for name in stale_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestCrashDuringCachedCall:
    def test_crash_on_warm_call_releases_every_segment(self):
        matrix = _rmat_csdb(7, seed=61)
        dense = np.random.default_rng(5).standard_normal((matrix.n_cols, 3))
        pool = SharedMemoryExecutor(n_workers=2, call_timeout_s=30.0)
        ranges = _ranges(matrix, 4)
        out = np.empty((matrix.n_rows, 3))
        pool.run_partitions(matrix, dense, ranges, out)  # cold: stage + cache
        assert pool.stats.shared_cache_misses == 1
        segment_names = [
            spec.name
            for entry in pool._matrices.values()
            for spec in entry[1].handle.specs
        ] + [seg.segment.name for seg in pool._scratch.values()]
        assert segment_names

        with pytest.raises(WorkerCrashError):
            pool.run_partitions(
                matrix, dense, ranges, out, _inject_crash=True
            )
        assert pool.closed
        from multiprocessing import shared_memory

        for name in segment_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestForkSafety:
    def test_forked_child_abandons_parent_pools(self):
        matrix = _rmat_csdb(6, seed=71)
        dense = np.ones((matrix.n_cols, 2))
        pool = get_shared_executor(2)
        ranges = _ranges(matrix, 2)
        out = np.empty((matrix.n_rows, 2))
        pool.run_partitions(matrix, dense, ranges, out)
        expected = out.copy()

        pid = os.fork()
        if pid == 0:
            # Child: the fork hook must have abandoned the inherited
            # pool — closed, bookkeeping empty — and close() must be a
            # no-op that cannot unlink the parent's segments.
            ok = (
                pool.closed
                and pool._matrices == {}
                and pool._scratch == {}
                and not pool._workers
            )
            try:
                pool.close()
                import repro.parallel.shared as shared_module

                ok = ok and shared_module._POOLS == {}
            except BaseException:
                ok = False
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        # Parent: pool and segments untouched by the child's exit.
        assert not pool.closed
        pool.run_partitions(matrix, dense, ranges, out)
        assert np.array_equal(out, expected)

    def test_shutdown_shared_executors_closes_registry(self):
        pool = get_shared_executor(1)
        assert get_shared_executor(1) is pool
        shutdown_shared_executors()
        assert pool.closed
        fresh = get_shared_executor(1)
        assert fresh is not pool and not fresh.closed


class TestThreadsBackendSemantics:
    def test_exception_propagates_and_pool_survives(self):
        matrix = _rmat_csdb(6, seed=81)
        pool = ThreadsExecutor(n_workers=2)
        try:
            out = np.empty((matrix.n_rows, 2))
            bad_dense = np.ones((matrix.n_cols + 1, 2))  # dimension mismatch
            with pytest.raises(ValueError, match="dimension mismatch"):
                pool.run_partitions(
                    matrix, bad_dense, _ranges(matrix, 2), out
                )
            assert not pool.closed
            dense = np.ones((matrix.n_cols, 2))
            ranges = _ranges(matrix, 2)
            pool.run_partitions(matrix, dense, ranges, out)
            assert np.array_equal(out, _serial(matrix, dense, ranges))
        finally:
            pool.close()

    def test_empty_ranges_zero_output(self):
        matrix = _rmat_csdb(6, seed=83)
        pool = ThreadsExecutor(n_workers=1)
        try:
            out = np.full((matrix.n_rows, 2), np.nan)
            pool.run_partitions(matrix, np.ones((matrix.n_cols, 2)), [], out)
            assert np.array_equal(out, np.zeros_like(out))
        finally:
            pool.close()
