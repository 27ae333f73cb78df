"""Tail-latency statistics over per-thread completion times (Fig. 13)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ThreadStats:
    """Distribution summary of per-thread completion times.

    All values are in the same unit as the input times (seconds for the
    simulated clocks).  ``p95``/``p99`` are the paper's tail-latency
    metrics; ``std`` is the spread it quotes for WaTA (1.52) vs EaTA
    (0.78) on soc-LiveJournal.
    """

    n_threads: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    @property
    def makespan(self) -> float:
        """Completion time of the whole parallel phase."""
        return self.maximum

    @property
    def imbalance(self) -> float:
        """Makespan / mean — 1.0 is perfectly balanced."""
        if self.mean == 0.0:
            return 1.0
        return self.maximum / self.mean


def summarize_thread_times(times: np.ndarray) -> ThreadStats:
    """Summarize a vector of per-thread completion times."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-D array")
    return ThreadStats(
        n_threads=len(times),
        mean=float(times.mean()),
        std=float(times.std()),
        minimum=float(times.min()),
        maximum=float(times.max()),
        p50=float(np.percentile(times, 50)),
        p95=float(np.percentile(times, 95)),
        p99=float(np.percentile(times, 99)),
    )
