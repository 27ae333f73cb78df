"""Unit tests for the sampling/caching/walk substrates."""

import numpy as np
import pytest

from repro.baselines import (
    FeatureCache,
    NeighborSampler,
    RandomWalker,
    belady_hit_rate,
)


class TestNeighborSampler:
    def test_layer_respects_fanout(self, skewed_csr):
        sampler = NeighborSampler(skewed_csr, seed=0)
        frontier = np.array([0, 1, 2])
        nxt = sampler.sample_layer(frontier, fanout=3)
        assert len(nxt) <= 3 * len(frontier)

    def test_layer_nodes_are_neighbors(self, paper_csr):
        sampler = NeighborSampler(paper_csr, seed=0)
        nxt = sampler.sample_layer(np.array([1]), fanout=10)
        true_neighbors, _ = paper_csr.row(1)
        assert set(nxt.tolist()) <= set(true_neighbors.tolist())

    def test_minibatch_includes_seeds(self, skewed_csr):
        sampler = NeighborSampler(skewed_csr, seed=0)
        seeds = np.array([5, 9, 11])
        touched, n_edges = sampler.sample_minibatch(seeds, fanouts=(4, 2))
        assert set(seeds.tolist()) <= set(touched.tolist())
        assert n_edges > 0

    def test_invalid_fanout(self, skewed_csr):
        with pytest.raises(ValueError, match="fanout"):
            NeighborSampler(skewed_csr).sample_layer(np.array([0]), 0)

    def test_isolated_frontier(self, skewed_csr):
        sampler = NeighborSampler(skewed_csr, seed=0)
        nxt = sampler.sample_layer(np.empty(0, dtype=np.int64), fanout=3)
        assert len(nxt) == 0


class TestFeatureCache:
    def test_lru_eviction(self):
        cache = FeatureCache(capacity=2)
        assert not cache.access(1)
        assert not cache.access(2)
        assert cache.access(1)  # hit; 2 becomes LRU... no, 1 refreshed
        assert not cache.access(3)  # evicts 2
        assert not cache.access(2)  # miss: was evicted
        assert cache.access(3)

    def test_hit_rate(self):
        cache = FeatureCache(capacity=10)
        for node in (1, 2, 3, 1, 2, 3):
            cache.access(node)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_zero_capacity_never_hits(self):
        cache = FeatureCache(capacity=0)
        for _ in range(3):
            cache.access(1)
        assert cache.hit_rate == 0.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            FeatureCache(capacity=-1)


class TestBelady:
    def test_optimal_beats_lru(self):
        rng = np.random.default_rng(0)
        # Zipf-ish access sequence over 200 keys.
        seq = rng.zipf(1.5, size=2000) % 200
        capacity = 20
        lru = FeatureCache(capacity)
        for node in seq:
            lru.access(int(node))
        optimal = belady_hit_rate(seq, capacity)
        assert optimal >= lru.hit_rate

    def test_full_capacity_all_hits_after_first(self):
        seq = np.array([1, 2, 3, 1, 2, 3, 1, 2, 3])
        assert belady_hit_rate(seq, capacity=3) == pytest.approx(6 / 9)

    def test_zero_capacity(self):
        assert belady_hit_rate(np.array([1, 2, 3]), 0) == 0.0

    def test_empty_sequence(self):
        assert belady_hit_rate(np.array([]), 5) == 0.0

    def test_capacity_one_repeated_key(self):
        seq = np.array([7, 7, 7, 7])
        assert belady_hit_rate(seq, 1) == pytest.approx(0.75)


class TestRandomWalker:
    def test_walk_length(self, skewed_csr):
        walker = RandomWalker(skewed_csr, seed=0)
        path = walker.walk(0, 20)
        assert 1 <= len(path) <= 21
        assert path[0] == 0

    def test_walk_follows_edges(self, paper_csr):
        walker = RandomWalker(paper_csr, seed=0)
        path = walker.walk(0, 30)
        for u, v in zip(path, path[1:]):
            neighbors, _ = paper_csr.row(int(u))
            assert int(v) in neighbors.tolist()

    def test_walk_stops_at_dead_end(self):
        from repro.formats import CSRMatrix

        # Directed chain 0 -> 1 with node 1 a sink.
        chain = CSRMatrix.from_coo([0], [1], [1.0], (2, 2))
        walker = RandomWalker(chain, seed=0)
        path = walker.walk(0, 10)
        assert path.tolist() == [0, 1]

    def test_negative_length(self, skewed_csr):
        with pytest.raises(ValueError, match="length"):
            RandomWalker(skewed_csr).walk(0, -1)

    def test_corpus_size_estimate(self, skewed_csr):
        walker = RandomWalker(skewed_csr, seed=0)
        corpus = walker.corpus_size(walks_per_node=2, walk_length=10)
        n = skewed_csr.n_rows
        assert 2 * n <= corpus <= 2 * n * 11
