"""The threads backend: one zero-copy block per worker, serial below a floor.

- A sub-range is multiplied over the kernel view's own arrays: nothing
  of the matrix is copied, and its rows are the full product's.
- A product under ``THREADS_MIN_WORK`` multiply-adds is the serial path
  itself and starts no thread.
- Above it, a product is ``n_workers`` blocks, the last on the calling
  thread, which also runs any block no pool thread has begun; the
  result equals serial bit for bit, in either value dtype,
  at any worker count, over ranges that leave rows uncovered, and over
  the caller-order view once the matrix has built it.
- A raising block joins the others before its exception propagates.
- Forked children (shard hosts) hold no pool.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro.formats.csdb as csdb
import repro.parallel.threads as threads
from repro.core import (
    ExecBackend,
    OMeGaConfig,
    OMeGaEmbedder,
    ParallelConfig,
    SpMMEngine,
)
from repro.formats import CSDBMatrix, edges_to_csdb
from repro.graphs import rmat_edges
from repro.obs.tracer import NULL_TRACER, SpanTracer
from repro.parallel import (
    SimulatedExecutor,
    ThreadsExecutor,
    get_threads_executor,
    mp_context,
    shutdown_threads_executors,
)
from repro.parallel.threads import THREADS_MIN_WORK, balanced_blocks
from repro.serve.sharded import ShardedEmbeddingBackend
from repro.shard import ShardPolicy

SERIAL = ParallelConfig(backend=ExecBackend.SIMULATED)
SERIAL_EXECUTOR = SimulatedExecutor()


@pytest.fixture(scope="module", autouse=True)
def _close_pools():
    yield
    shutdown_threads_executors()


@pytest.fixture(scope="module")
def rmat() -> CSDBMatrix:
    """Large enough that a 24-wide product clears the floor."""
    matrix = edges_to_csdb(rmat_edges(12, edge_factor=8.0, seed=5), 1 << 12)
    matrix.nnz_list[:] = np.random.default_rng(5).standard_normal(matrix.nnz)
    matrix.mark_mutated()
    assert matrix.nnz * 24 >= THREADS_MIN_WORK
    return matrix


def _fresh(matrix: CSDBMatrix, dtype=np.float64) -> CSDBMatrix:
    """Same pattern and values, no views or relayout progress yet."""
    return matrix.with_values(matrix.nnz_list.astype(dtype))


def _dense(matrix: CSDBMatrix, d: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((matrix.n_cols, d))


def _eata_ranges(matrix: CSDBMatrix) -> list[tuple[int, int]]:
    engine = SpMMEngine(OMeGaConfig(n_threads=8, parallel=SERIAL))
    result = engine.multiply(matrix, _dense(matrix, 2), compute=False)
    return [(p.row_start, p.row_end) for p in result.partitions if p.n_rows]


# -- sub-ranges are zero-copy -------------------------------------------------


def test_every_eata_range_reads_the_kernel_views_arrays(rmat, monkeypatch):
    view = rmat.kernel_view()
    seen = []
    original = csdb.csr_matvecs

    def spied(n_rows, n_cols, n_vecs, indptr, indices, data, x, y):
        seen.append((indptr, indices, data))
        return original(n_rows, n_cols, n_vecs, indptr, indices, data, x, y)

    monkeypatch.setattr(csdb, "csr_matvecs", spied)
    dense = _dense(rmat, 8)
    full = view @ dense
    ranges = _eata_ranges(rmat)
    assert len(ranges) == 8
    for row_start, row_end in ranges:
        rows = rmat.spmm_rows(dense, row_start, row_end)
        indptr, indices, data = seen.pop()
        assert np.shares_memory(indptr, view.indptr)
        assert np.shares_memory(indices, view.indices)
        assert np.shares_memory(data, view.data)
        assert rows.tobytes() == full[row_start:row_end].tobytes()
    assert not seen


def test_out_must_be_a_c_contiguous_buffer_of_the_result(rmat):
    dense = _dense(rmat, 4)
    out = np.zeros((rmat.n_rows, 8))[:10, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        rmat.spmm_rows(dense, 0, 10, out=out)
    with pytest.raises(ValueError, match="shape"):
        rmat.spmm_rows(dense, 0, 10, out=np.zeros((11, 4)))
    out = np.zeros((10, 4))
    assert rmat.spmm_rows(dense, 0, 10, out=out) is out
    assert out.tobytes() == rmat.spmm_rows(dense, 0, 10).tobytes()


# -- under the floor: the serial path, no pool --------------------------------


def test_a_product_under_the_floor_is_serial_and_starts_no_thread():
    matrix = edges_to_csdb(rmat_edges(10, edge_factor=8.0, seed=6), 1 << 10)
    d = 32
    assert matrix.nnz * d < THREADS_MIN_WORK
    pool = ThreadsExecutor(n_workers=2)
    before = threading.active_count()
    ranges = [(0, matrix.n_rows)]
    try:
        threaded, serial = _fresh(matrix), _fresh(matrix)
        # Until the serial twin relays, and once after: the caller-order
        # view is built on the same product on both sides.
        for call in range(32):
            dense = _dense(matrix, d, seed=call)
            out = pool.run_partitions(threaded, dense, ranges)
            expected = SERIAL_EXECUTOR.run_partitions(serial, dense, ranges)
            assert out.tobytes() == expected.tobytes()
            assert (threaded._caller_view is None) == (
                serial._caller_view is None
            )
            if serial._caller_view is not None:
                break
        assert serial._caller_view is not None
        assert pool._pool is None
        assert threading.active_count() == before
        assert pool.stats.plans == 0
    finally:
        pool.close()


# -- above the floor: blocks, bit-identical -----------------------------------


RANGE_CASES = {
    "eata": None,  # the engine's own eight ranges, covering every row
    "full": lambda n: [(0, n)],
    "gaps": lambda n: [(0, 40), (40, 900), (1200, n - 7)],
    "head_and_tail_uncovered": lambda n: [(10, 2000), (2000, 3000)],
}


@pytest.mark.parametrize("case", sorted(RANGE_CASES))
@pytest.mark.parametrize("n_workers", (1, 2, 3))
@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_blocks_equal_serial_bit_for_bit(rmat, dtype, n_workers, case):
    make = RANGE_CASES[case]
    ranges = _eata_ranges(rmat) if make is None else make(rmat.n_rows)
    threaded, serial = _fresh(rmat, dtype), _fresh(rmat, dtype)
    pool = ThreadsExecutor(n_workers=n_workers)
    try:
        # Enough 24-wide products that a covered plan moves onto the
        # caller-order view midway; every product is compared.
        for call in range(12):
            dense = _dense(rmat, 24, seed=call)
            if call % 2:
                dense = np.asfortranarray(dense)
            out = pool.run_partitions(threaded, dense, ranges)
            expected = SERIAL_EXECUTOR.run_partitions(serial, dense, ranges)
            assert out.dtype == dtype
            assert out.tobytes() == expected.tobytes(), call
        assert (pool._pool is None) == (n_workers == 1)
        covered = make is None or case == "full"
        assert (threaded._caller_view is not None) == covered
        assert (serial._caller_view is not None) == covered
    finally:
        pool.close()


def test_a_covered_product_is_one_block_per_worker_last_on_the_caller(
    rmat, monkeypatch
):
    calls = []
    original = CSDBMatrix.spmm_rows
    caller = threading.get_ident()

    def spied(matrix, dense, row_start, row_end, **kwargs):
        calls.append((row_start, row_end, threading.get_ident() == caller))
        return original(matrix, dense, row_start, row_end, **kwargs)

    monkeypatch.setattr(CSDBMatrix, "spmm_rows", spied)
    matrix = _fresh(rmat)
    pool = ThreadsExecutor(n_workers=3)
    try:
        pool.run_partitions(matrix, _dense(matrix, 24), _eata_ranges(matrix))
    finally:
        pool.close()
    blocks = balanced_blocks(matrix.kernel_view().indptr, 3)
    assert len(blocks) == 3
    assert sorted((a, b) for a, b, _ in calls) == blocks
    # The last block is the caller's; the others are whoever's took
    # them first (the caller's too, when a pool thread was late).
    assert (*blocks[-1], True) in calls
    prefix = matrix.nnz_prefix()
    nnz = [int(prefix[b] - prefix[a]) for a, b in blocks]
    assert max(nnz) - min(nnz) <= int(matrix.deg_list[0])


def test_a_tracer_does_not_change_the_block_calls(rmat, monkeypatch):
    calls = []
    original = CSDBMatrix.spmm_rows

    def spied(matrix, dense, row_start, row_end, **kwargs):
        calls.append((row_start, row_end))
        return original(matrix, dense, row_start, row_end, **kwargs)

    monkeypatch.setattr(CSDBMatrix, "spmm_rows", spied)
    config = OMeGaConfig(n_threads=8, parallel=ParallelConfig(n_workers=2))
    dense = _dense(rmat, 24)
    seen = {}
    for name, tracer in (("null", NULL_TRACER), ("span", SpanTracer())):
        matrix = _fresh(rmat)
        result = SpMMEngine(config, tracer=tracer).multiply(matrix, dense)
        seen[name] = (sorted(calls), result.output)
        calls.clear()
    (null_calls, null_out), (span_calls, span_out) = seen["null"], seen["span"]
    assert len(null_calls) == 2
    assert span_calls == null_calls
    assert span_out.tobytes() == null_out.tobytes()


def test_the_caller_runs_a_block_no_pool_thread_has_begun(rmat):
    matrix = _fresh(rmat)
    dense = _dense(matrix, 24)
    ranges = [(0, matrix.n_rows)]
    pool = ThreadsExecutor(n_workers=2)
    release = threading.Event()
    # Frees the pool thread late, should the call wait for it after all.
    timer = threading.Timer(5.0, release.set)
    try:
        # The one pool thread is busy: the call must not wait for it.
        busy = pool._ensure_pool().submit(release.wait)
        timer.start()
        out = pool.run_partitions(matrix, dense, ranges)
        assert not busy.done()
        expected = SERIAL_EXECUTOR.run_partitions(_fresh(rmat), dense, ranges)
        assert out.tobytes() == expected.tobytes()
    finally:
        timer.cancel()
        release.set()
        pool.close()


def test_balanced_blocks_cut_a_run_by_its_own_nonzeros(rmat):
    indptr = rmat.kernel_view().indptr
    for run_start, run_end in ((0, rmat.n_rows), (100, 900), (2000, 4000)):
        pointers = indptr[run_start : run_end + 1]
        blocks = balanced_blocks(pointers, 3)
        assert blocks[0][0] == 0 and blocks[-1][1] == run_end - run_start
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        nnz = [int(pointers[b] - pointers[a]) for a, b in blocks]
        assert len(blocks) == 3
        assert max(nnz) - min(nnz) <= int(rmat.deg_list[0])


# -- failures -----------------------------------------------------------------


def test_a_raising_caller_block_joins_the_others_first(rmat, monkeypatch):
    matrix = _fresh(rmat)
    dense = _dense(matrix, 24)
    ranges = [(0, matrix.n_rows)]
    original = CSDBMatrix.spmm_rows
    caller = threading.get_ident()
    finished = []

    def faulty(self, dense, row_start, row_end, **kwargs):
        if threading.get_ident() == caller:
            raise RuntimeError("caller block failed")
        time.sleep(0.05)
        out = original(self, dense, row_start, row_end, **kwargs)
        finished.append((row_start, row_end))
        return out

    pool = ThreadsExecutor(n_workers=3)
    try:
        monkeypatch.setattr(CSDBMatrix, "spmm_rows", faulty)
        with pytest.raises(RuntimeError, match="caller block failed"):
            pool.run_partitions(matrix, dense, ranges)
        # Both submitted blocks ran to the end before the raise.
        assert len(finished) == 2
        monkeypatch.setattr(CSDBMatrix, "spmm_rows", original)
        assert not pool.closed
        out = pool.run_partitions(matrix, dense, ranges)
        expected = SERIAL_EXECUTOR.run_partitions(_fresh(rmat), dense, ranges)
        assert out.tobytes() == expected.tobytes()
    finally:
        pool.close()


# -- fork safety --------------------------------------------------------------


def _report_pools(executor, conn) -> None:
    conn.send((
        len(threads._THREAD_POOLS),
        executor._pool is None,
        executor.closed,
        threading.active_count(),
    ))
    conn.close()


@pytest.mark.usefixtures("no_shard_leftovers")
def test_shard_hosts_fork_cleanly_after_a_threaded_embed():
    shutdown_threads_executors()  # the embed below starts the pool
    n_nodes = 1 << 12
    edges = rmat_edges(12, edge_factor=8.0, seed=7)
    embedder = OMeGaEmbedder(
        OMeGaConfig(n_threads=2, dim=24, parallel=ParallelConfig(n_workers=2))
    )
    with ShardedEmbeddingBackend(
        embedder, edges, n_nodes, shard_policy=ShardPolicy(n_shards=2)
    ) as backend:
        backend.warm_up()
        executor = get_threads_executor(2)
        assert executor._pool is not None  # the embed ran blocks
        ids = np.arange(0, n_nodes, 97)
        result = backend.shards.lookup(ids)
        assert result.rows.tobytes() == backend._full[ids].tobytes()
        # A child forked now (as the shard hosts were) holds no pool.
        parent_end, child_end = mp_context().Pipe(duplex=False)
        child = mp_context().Process(
            target=_report_pools, args=(executor, child_end)
        )
        child.start()
        child_end.close()
        try:
            assert parent_end.recv() == (0, True, True, 1)
        finally:
            parent_end.close()
            child.join()
        assert child.exitcode == 0
        assert not executor.closed and executor._pool is not None
