"""Property-based tests for the baseline cache utilities."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FeatureCache, belady_hit_rate


class TestCacheProperties:
    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=300),
        st.integers(1, 40),
    )
    @settings(max_examples=50, deadline=None)
    def test_belady_dominates_lru(self, sequence, capacity):
        sequence = np.array(sequence)
        lru = FeatureCache(capacity)
        lru.access_many(sequence)
        assert belady_hit_rate(sequence, capacity) >= lru.hit_rate - 1e-12

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_infinite_capacity_misses_once_per_key(self, sequence):
        sequence = np.array(sequence)
        distinct = len(np.unique(sequence))
        hit_rate = belady_hit_rate(sequence, capacity=1000)
        assert hit_rate == (len(sequence) - distinct) / len(sequence)

    @given(
        st.lists(st.integers(0, 10), min_size=1, max_size=100),
        st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_belady_monotone_in_capacity(self, sequence, capacity):
        sequence = np.array(sequence)
        assert belady_hit_rate(sequence, capacity + 1) >= belady_hit_rate(
            sequence, capacity
        ) - 1e-12
