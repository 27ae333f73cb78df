"""Real workload substrates for the competitor simulators.

The GNN/random-walk competitors are dominated by *data movement driven by
sampling*, so their simulators are fed by real sampling machinery rather
than closed-form guesses:

- :class:`NeighborSampler` — layered neighbor sampling (GraphSAGE-style)
  producing actual minibatch node sets, from which the Ginex/DistDGL
  models take their feature-fetch byte counts;
- :class:`FeatureCache` — an LRU feature cache, plus
  :func:`belady_hit_rate`, an offline optimal (Belady) hit-rate
  computation matching Ginex's "provably optimal in-memory caching";
- :class:`RandomWalker` — the walk generator behind the DistGER model.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.formats.csr import CSRMatrix


class NeighborSampler:
    """Layered uniform neighbor sampling over a CSR adjacency."""

    def __init__(self, adjacency: CSRMatrix, seed: int = 0) -> None:
        self.adjacency = adjacency
        self.rng = np.random.default_rng(seed)

    def sample_layer(self, frontier: np.ndarray, fanout: int) -> np.ndarray:
        """Sample up to ``fanout`` neighbors of every frontier node.

        Returns the (deduplicated) next frontier.
        """
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        sampled: list[np.ndarray] = []
        for node in np.asarray(frontier, dtype=np.int64):
            neighbors, _ = self.adjacency.row(int(node))
            if len(neighbors) == 0:
                continue
            if len(neighbors) <= fanout:
                sampled.append(neighbors)
            else:
                idx = self.rng.choice(len(neighbors), size=fanout, replace=False)
                sampled.append(neighbors[idx])
        if not sampled:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(sampled))

    def sample_minibatch(
        self, batch_nodes: np.ndarray, fanouts: tuple[int, ...] = (10, 5)
    ) -> tuple[np.ndarray, int]:
        """Full L-layer sample for one minibatch.

        Returns:
            (all touched nodes, sampled edge count) — the inputs to the
            feature-fetch and compute cost models.
        """
        frontier = np.unique(np.asarray(batch_nodes, dtype=np.int64))
        touched = [frontier]
        n_edges = 0
        for fanout in fanouts:
            nxt = self.sample_layer(frontier, fanout)
            n_edges += min(len(frontier) * fanout, int(nxt.size * fanout))
            touched.append(nxt)
            frontier = nxt
        return np.unique(np.concatenate(touched)), n_edges


class FeatureCache:
    """LRU cache over node-feature rows (capacity in entries)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, node: int) -> bool:
        """Touch one node's features; returns True on a hit."""
        if self.capacity == 0:
            self.misses += 1
            return False
        if node in self._entries:
            self._entries.move_to_end(node)
            self.hits += 1
            return True
        self.misses += 1
        self._entries[node] = None
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return False

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def belady_hit_rate(access_sequence: np.ndarray, capacity: int) -> float:
    """Offline-optimal (Belady) hit rate of an access sequence.

    Ginex's contribution is provably optimal feature caching computed
    from a pre-recorded sampling trace; this is that computation.  Evicts
    the resident entry whose next use is farthest in the future.
    """
    sequence = np.asarray(access_sequence, dtype=np.int64)
    if capacity <= 0 or len(sequence) == 0:
        return 0.0
    # Precompute each position's next-use index.
    next_use = np.full(len(sequence), np.iinfo(np.int64).max, dtype=np.int64)
    last_seen: dict[int, int] = {}
    for i in range(len(sequence) - 1, -1, -1):
        key = int(sequence[i])
        next_use[i] = last_seen.get(key, np.iinfo(np.int64).max)
        last_seen[key] = i
    resident: dict[int, int] = {}  # node -> its next use index
    hits = 0
    for i, raw in enumerate(sequence):
        key = int(raw)
        if key in resident:
            hits += 1
            resident[key] = int(next_use[i])
            continue
        if len(resident) >= capacity:
            victim = max(resident, key=resident.__getitem__)
            del resident[victim]
        resident[key] = int(next_use[i])
    return hits / len(sequence)


class RandomWalker:
    """Uniform random-walk generator (the DistGER/DeepWalk substrate)."""

    def __init__(self, adjacency: CSRMatrix, seed: int = 0) -> None:
        self.adjacency = adjacency
        self.rng = np.random.default_rng(seed)

    def walk(self, start: int, length: int) -> np.ndarray:
        """One uniform walk of ``length`` steps from ``start``."""
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        path = np.empty(length + 1, dtype=np.int64)
        path[0] = start
        node = start
        for step in range(1, length + 1):
            neighbors, _ = self.adjacency.row(int(node))
            if len(neighbors) == 0:
                return path[:step]
            node = int(neighbors[self.rng.integers(len(neighbors))])
            path[step] = node
        return path

    def corpus_size(
        self, walks_per_node: int, walk_length: int, sample_nodes: int = 256
    ) -> float:
        """Estimated total walk steps for a full corpus, extrapolated from
        a node sample (walks truncate at dead ends)."""
        n = self.adjacency.n_rows
        nodes = self.rng.choice(n, size=min(sample_nodes, n), replace=False)
        lengths = [len(self.walk(int(v), walk_length)) for v in nodes]
        return float(np.mean(lengths)) * walks_per_node * n
