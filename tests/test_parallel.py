"""Unit tests for the tail-latency statistics."""

import numpy as np
import pytest

from repro.parallel import summarize_thread_times


class TestThreadStats:
    def test_summary_values(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        stats = summarize_thread_times(times)
        assert stats.n_threads == 4
        assert stats.mean == 2.5
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.makespan == 4.0
        assert stats.p50 == 2.5

    def test_imbalance_and_cv(self):
        stats = summarize_thread_times(np.array([1.0, 1.0, 2.0]))
        assert stats.imbalance == pytest.approx(2.0 / (4.0 / 3.0))
        assert stats.std / stats.mean == pytest.approx(
            np.std([1.0, 1.0, 2.0]) / np.mean([1.0, 1.0, 2.0])
        )

    def test_balanced_distribution(self):
        stats = summarize_thread_times(np.full(8, 2.0))
        assert stats.std == 0.0
        assert stats.imbalance == 1.0

    def test_percentiles_ordered(self, rng):
        stats = summarize_thread_times(rng.exponential(size=100))
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.maximum

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            summarize_thread_times(np.array([]))

    def test_zero_mean_edge_cases(self):
        stats = summarize_thread_times(np.zeros(3))
        assert stats.imbalance == 1.0
