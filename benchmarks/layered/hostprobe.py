"""Host calibration probe: numpy stream copy and seeded random row gather.

The real-hardware twin of ``repro.memsim.probe``: two bandwidths the
kernel numbers are stated against.  The box this was sized on shares a
260 MB L3, so arrays four times the last-level cache are not feasible
inside a benchmark run; the sizes below are recorded with the result
and the numbers are labelled "may be cache-resident".
"""

from __future__ import annotations

import os
import time

import numpy as np

STREAM_BYTES = 32 * 2**20       # per array; a copy reads one and writes one
GATHER_TABLE_ROWS = 2**19       # x 16 float64 = 64 MiB table
GATHER_ROW_BYTES = 16 * 8
GATHER_ROWS = 2**17             # rows gathered per pass (16 MiB out)
REPEATS = 5


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _best(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def probe(seed: int) -> dict:
    """Best-of-``REPEATS`` bandwidths in GB/s, with the sizes used."""
    start = time.perf_counter()
    src = np.ones(STREAM_BYTES // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # touch both arrays before timing
    stream_s = _best(lambda: np.copyto(dst, src))
    del src, dst

    table = np.ones((GATHER_TABLE_ROWS, GATHER_ROW_BYTES // 8))
    ids = np.random.default_rng(seed).integers(
        0, GATHER_TABLE_ROWS, size=GATHER_ROWS
    )
    out = table[ids]
    gather_s = _best(lambda: np.take(table, ids, axis=0, out=out))
    return {
        "nproc": nproc(),
        "stream_copy_gbps": 2 * STREAM_BYTES / stream_s / 1e9,
        "random_gather_gbps": 2 * GATHER_ROWS * GATHER_ROW_BYTES / gather_s / 1e9,
        "stream_array_bytes": STREAM_BYTES,
        "gather_table_bytes": GATHER_TABLE_ROWS * GATHER_ROW_BYTES,
        "gather_rows": GATHER_ROWS,
        "probe_s": time.perf_counter() - start,
        "note": "may be cache-resident (arrays < 4x last-level cache)",
    }
