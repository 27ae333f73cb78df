"""Parallel scaling: serial vs shared-memory vs threads (2 / 4 workers).

Times the real SpMM kernel dispatch (``SpMMResult.kernel_wall_seconds``)
on a seeded R-MAT graph under the serial simulated backend, the
shared-memory pool, and the thread pool at 2 and 4 workers.  Every real
arm is measured twice over:

- **cold** — the first multiply on a freshly reset pool, paying worker
  start-up and operand staging (the shared copy of the matrix, the
  mapped scratch segments);
- **warm** — the median of the following calls, riding the persistent
  segment cache and batched plan submission, plus the median *plan
  overhead* (the executor's ``last_submit_wall_s``: staging + enqueue
  time per call).

The table, the ``BENCH_omega.json`` trajectory, and the assertions all
carry both: on any machine the warm path must beat the cold path for
the shared-memory backend (that is the point of the segment cache), and
bit-identity of every parallel result against serial is unconditional.

The partition imbalance (max/median kernel wall — the number EaTA
allocation is supposed to hold near 1) is measured by timing
``spmm_rows`` over each of the engine's planned row ranges directly; it
is a property of the plan, so every arm reports the same number.

Next to the threads arms sits a **dense-GEMM control**: the same two
Python threads each run a BLAS GEMM on half of the operand's rows.  GEMM
certainly releases the GIL, so a threads speed-up near 1.0 means "the
sparse kernel holds the GIL" only where the control's speed-up is well
above 1.0; where the control is near 1.0 too, the box has no second
free core and the threads arm says nothing either way.

Wall-clock speedup is a *physical* property: it requires free cores.
The benchmark measures and reports honestly on any machine, and asserts
the >= 1.5x 4-worker speedup target (for at least one real backend)
only where at least 4 cores are available to this process
(``os.sched_getaffinity``); on smaller machines the table and
trajectory still record the observed ratios so the number is auditable
wherever CI has real parallelism.
"""

import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from common import (  # noqa: F401
    run_once,
    save_telemetry,
    telemetry_session,
    write_report,
)

from repro.bench import format_seconds, format_table
from repro.core import ExecBackend, OMeGaConfig, ParallelConfig, SpMMEngine
from repro.formats import edges_to_csdb
from repro.graphs import rmat_edges
from repro.obs.observatory import append_trajectory_point
from repro.obs.observatory.manifest import git_sha
from repro.obs.observatory.perfgate import DEFAULT_TRAJECTORY
from repro.parallel import (
    shutdown_shared_executors,
    shutdown_threads_executors,
)

SCALE = 13
EDGE_FACTOR = 16.0
DIM = 64
SEED = 0
REPEATS = 3
SPEEDUP_TARGET = 1.5
REAL_BACKENDS = (ExecBackend.SHARED_MEMORY, ExecBackend.THREADS)


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _reset_pools() -> None:
    """Tear down every process-wide pool so cold timings are honest."""
    shutdown_shared_executors()
    shutdown_threads_executors()


def _engine(backend: ExecBackend, n_workers: int) -> SpMMEngine:
    return SpMMEngine(
        OMeGaConfig(
            n_threads=8,
            dim=DIM,
            parallel=ParallelConfig(backend=backend, n_workers=n_workers),
        )
    )


def _measure_arm(
    backend: ExecBackend, n_workers: int, matrix, dense
) -> tuple[float, float, float, np.ndarray]:
    """(cold wall, median warm wall, median plan overhead, output).

    The pool registries are reset first, so the cold call genuinely
    pays worker start-up and operand staging; the warm calls then ride
    whatever the backend persists between calls.
    """
    _reset_pools()
    engine = _engine(backend, n_workers)
    result = engine.multiply(matrix, dense)
    cold_s = result.kernel_wall_seconds
    output = result.output
    warm_samples, overhead_samples = [], []
    for _ in range(REPEATS):
        result = engine.multiply(matrix, dense)
        warm_samples.append(result.kernel_wall_seconds)
        stats = getattr(engine.kernel_executor, "stats", None)
        overhead_samples.append(
            stats.last_submit_wall_s if stats is not None else 0.0
        )
        output = result.output
    return (
        cold_s,
        statistics.median(warm_samples),
        statistics.median(overhead_samples),
        output,
    )


def _partition_imbalance(matrix, dense) -> float:
    """max/median kernel wall over the engine's planned row ranges.

    Each range is timed directly (best of ``REPEATS`` ``spmm_rows``
    calls), so the ratio is a measured number, not an nnz ratio.
    """
    plan = _engine(ExecBackend.SIMULATED, 1).multiply(
        matrix, dense, compute=False
    )
    walls = []
    for partition in plan.partitions:
        if partition.n_rows == 0:
            continue
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            matrix.spmm_rows(dense, partition.row_start, partition.row_end)
            samples.append(time.perf_counter() - start)
        walls.append(min(samples))
    assert len(walls) >= 2, f"expected 8 threads' ranges, got {len(walls)}"
    median = statistics.median(walls)
    if median <= 0:
        return float("inf")
    return max(walls) / median


def _gemm_control(dense: np.ndarray) -> tuple[float, float]:
    """(one-thread wall, two-thread wall) of a GEMM over two row halves.

    Median of ``REPEATS`` alternating measurements on a started pool.
    """
    weights = np.random.default_rng(SEED).standard_normal(
        (dense.shape[1], 4 * dense.shape[1])
    )
    halves = np.array_split(dense, 2)

    def gemm(block: np.ndarray) -> np.ndarray:
        return block @ weights

    serial, threaded = [], []
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(gemm, halves))  # start both threads
        for _ in range(REPEATS):
            start = time.perf_counter()
            for half in halves:
                gemm(half)
            serial.append(time.perf_counter() - start)
            start = time.perf_counter()
            list(pool.map(gemm, halves))
            threaded.append(time.perf_counter() - start)
    return statistics.median(serial), statistics.median(threaded)


def test_parallel_scaling(run_once):
    edges = rmat_edges(SCALE, edge_factor=EDGE_FACTOR, seed=SEED)
    n_nodes = 1 << SCALE
    matrix = edges_to_csdb(edges, n_nodes)
    dense = np.random.default_rng(SEED).standard_normal((n_nodes, DIM))
    cores = _available_cores()

    def experiment():
        cold_s, warm_s, overhead_s, serial_out = _measure_arm(
            ExecBackend.SIMULATED, 1, matrix, dense
        )
        imbalance = _partition_imbalance(matrix, dense)
        rows = [
            ("serial", 1, cold_s, warm_s, overhead_s, 1.0, True, imbalance)
        ]
        serial_warm = warm_s
        for backend in REAL_BACKENDS:
            for n_workers in (2, 4):
                cold_s, warm_s, overhead_s, out = _measure_arm(
                    backend, n_workers, matrix, dense
                )
                rows.append(
                    (
                        backend.value,
                        n_workers,
                        cold_s,
                        warm_s,
                        overhead_s,
                        serial_warm / warm_s if warm_s > 0 else float("inf"),
                        np.array_equal(out, serial_out),
                        imbalance,
                    )
                )
        return rows, _gemm_control(dense)

    rows, (gemm_serial_s, gemm_threads_s) = run_once(experiment)
    _reset_pools()

    session = telemetry_session(
        "parallel_scaling",
        scale=SCALE,
        dim=DIM,
        nnz=int(matrix.nnz),
        cores=cores,
    )
    for (
        backend, workers, cold_s, warm_s, overhead_s, speedup, identical,
        imbalance,
    ) in rows:
        session.event(
            "scaling_point",
            backend=backend,
            workers=workers,
            cold_wall_s=cold_s,
            kernel_wall_s=warm_s,
            plan_overhead_s=overhead_s,
            speedup=speedup,
            bit_identical=identical,
            partition_imbalance=imbalance,
        )
    session.event(
        "gemm_control",
        workers=2,
        serial_wall_s=gemm_serial_s,
        threads_wall_s=gemm_threads_s,
        speedup=gemm_serial_s / gemm_threads_s,
    )
    save_telemetry(session, "parallel_scaling")

    table = format_table(
        [
            "backend", "workers", "cold wall", "warm wall", "plan ovh",
            "speedup", "bit-identical", "imbalance",
        ],
        [
            [
                backend,
                workers,
                format_seconds(cold_s),
                format_seconds(warm_s),
                format_seconds(overhead_s),
                f"{speedup:.2f}x",
                "yes" if identical else "NO",
                f"{imbalance:.2f}",
            ]
            for (
                backend, workers, cold_s, warm_s, overhead_s, speedup,
                identical, imbalance,
            ) in rows
        ]
        + [
            [
                "dense-GEMM control",
                2,
                "-",
                format_seconds(gemm_threads_s),
                "-",
                f"{gemm_serial_s / gemm_threads_s:.2f}x",
                "-",
                "-",
            ]
        ],
        title=(
            f"Parallel scaling — R-MAT s{SCALE}, d={DIM},"
            f" {matrix.nnz} nnz, warm = median of {REPEATS}"
            f" ({cores} core(s) available)"
        ),
    )
    write_report("parallel_scaling", table)

    append_trajectory_point(
        DEFAULT_TRAJECTORY,
        {
            "suite": "bench_parallel_scaling",
            "git_sha": git_sha(),
            "cores": cores,
            "scale": SCALE,
            "dim": DIM,
            "nnz": int(matrix.nnz),
            "gemm_control": {
                "workers": 2,
                "serial_wall_s": gemm_serial_s,
                "threads_wall_s": gemm_threads_s,
            },
            "points": [
                {
                    "backend": backend,
                    "workers": workers,
                    "cold_wall_s": cold_s,
                    "kernel_wall_s": warm_s,
                    "plan_overhead_s": overhead_s,
                    "speedup": speedup,
                    "bit_identical": identical,
                    "partition_imbalance": imbalance,
                }
                for (
                    backend, workers, cold_s, warm_s, overhead_s, speedup,
                    identical, imbalance,
                ) in rows
            ],
        },
    )

    # Correctness is unconditional: every backend must agree bitwise.
    assert all(identical for *_, identical, _imb in rows)
    # The imbalance ratio is max/median: finite and >= 1 by construction.
    assert all(np.isfinite(imb) and imb >= 1.0 for *_, imb in rows)
    # The warm path must amortize what the cold path pays: on any
    # machine — cores or not — a shared-memory call that reuses the
    # cached segments has strictly less to do than one that shares the
    # matrix and spawns workers first.
    for backend, workers, cold_s, warm_s, *_ in rows:
        if backend == ExecBackend.SHARED_MEMORY.value:
            assert warm_s < cold_s, (
                f"{backend}@{workers}: warm {warm_s * 1e3:.1f}ms not below"
                f" cold {cold_s * 1e3:.1f}ms — segment cache not engaged?"
            )
    # Wall speedup needs physical cores; enforce the target only where
    # the machine can express it, for the best 4-worker real backend.
    if cores >= 4:
        best = max(r[5] for r in rows if r[1] == 4)
        assert best >= SPEEDUP_TARGET, (
            f"best 4-worker speedup {best:.2f}x below"
            f" {SPEEDUP_TARGET}x on a {cores}-core machine"
        )
