"""Entropy-aware shard ranges and the scatter-gather routing table.

The embedding table is split into contiguous *node-id* ranges (routing
stays an O(log N) binary search) whose boundaries come from the same
EaTA time model the SpMM allocator uses
(:class:`~repro.core.eata.EntropyAwareAllocator`): each node's expected
lookup cost is its degree derated by the Eq. 5 bandwidth-degradation
factor ``g(z)`` plus a constant per-row term, and the prefix sums of
that proxy are split into equal quantiles.  Hot, scattered regions of
the graph therefore land on smaller shards, equalizing per-shard load
the way EaTA equalizes per-thread completion times.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


def entropy_aware_node_ranges(
    degrees: np.ndarray,
    n_shards: int,
    beta: float = 0.41,
    row_overhead_nnz: float = 2.0,
) -> list[tuple[int, int]]:
    """Contiguous node ranges equalizing the EaTA cost proxy.

    Args:
        degrees: per-node degree (natural node-id order).
        n_shards: number of shards to cut.
        beta: random/sequential bandwidth ratio of Eq. 5.
        row_overhead_nnz: constant per-row cost term.

    Returns exactly ``n_shards`` half-open ``(start, end)`` ranges
    covering ``[0, len(degrees))``; trailing shards may be empty on
    degenerate inputs.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    degrees = np.asarray(degrees, dtype=np.float64)
    n_nodes = len(degrees)
    if n_nodes == 0:
        return [(0, 0)] * n_shards
    total = float(degrees.sum())
    log_v = float(np.log(max(n_nodes, 2)))
    w_nominal = max(total / n_shards, 1.0)
    # Each node's normalized-entropy window under a nominal shard load,
    # exactly as EntropyAwareAllocator.allocate estimates it per row.
    z = np.log(np.maximum(w_nominal / np.maximum(degrees, 1.0), 1.0))
    z = np.minimum(z / log_v, 1.0)
    g = 1.0 - z + beta * z
    proxy = degrees / g + row_overhead_nnz
    prefix = np.concatenate([[0.0], np.cumsum(proxy)])
    targets = np.linspace(0.0, prefix[-1], n_shards + 1)
    ranges: list[tuple[int, int]] = []
    start = 0
    for shard in range(n_shards):
        if shard == n_shards - 1:
            end = n_nodes
        else:
            end = int(np.searchsorted(prefix, targets[shard + 1], side="left"))
            end = min(max(end, start), n_nodes)
        ranges.append((start, end))
        start = end
    return ranges


def uniform_node_ranges(n_nodes: int, n_shards: int) -> list[tuple[int, int]]:
    """Plain equal-row ranges (the RR baseline; no degree information)."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    bounds = np.linspace(0, n_nodes, n_shards + 1).astype(np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1])) for i in range(n_shards)
    ]


@dataclass(frozen=True)
class ShardRoutingTable:
    """Maps node ids onto contiguous shard ranges.

    Immutable: a reshard builds a new table (:meth:`split_range`,
    :meth:`merge_ranges`) and swaps it in.  Lookups are vectorized
    binary searches.
    """

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ranges = tuple((int(a), int(b)) for a, b in self.ranges)
        if not ranges:
            raise ValueError("routing table needs at least one range")
        cursor = 0
        for index, (start, end) in enumerate(ranges):
            if start != cursor or end < start:
                raise ValueError(
                    f"ranges must be contiguous from 0; range {index}"
                    f" is [{start}, {end}) after cursor {cursor}"
                )
            cursor = end
        object.__setattr__(self, "ranges", ranges)
        # Range ends, for the binary searches of shard_of (as an array)
        # and split (as ints).  Derived from ``ranges`` and not dataclass
        # fields, so equality and repr are those of ``ranges`` alone.
        ends = tuple(end for _, end in ranges)
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(
            self, "_boundaries", np.asarray(ends, dtype=np.int64)
        )

    @property
    def n_shards(self) -> int:
        return len(self.ranges)

    @property
    def n_nodes(self) -> int:
        return self._ends[-1]

    def _check(self, node_ids: np.ndarray) -> tuple[int, int]:
        """The smallest and largest of non-empty ``node_ids``, in range."""
        low, high = int(node_ids.min()), int(node_ids.max())
        if low < 0 or high >= self.n_nodes:
            raise ValueError(
                f"node ids outside [0, {self.n_nodes}): [{low}, {high}]"
            )
        return low, high

    def shard_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Owning shard of every node id (vectorized)."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if len(node_ids):
            self._check(node_ids)
        return np.searchsorted(self._boundaries, node_ids, side="right")

    def split(
        self, node_ids: np.ndarray
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Group a lookup by shard: ``{shard: (positions, node_ids)}``.

        ``positions`` index back into the original request order, so
        gathered rows scatter straight into the caller's output buffer.
        Shards ascend, positions ascend within a shard, and an empty
        request gives ``{}``.  The smallest and largest id are taken
        once, to validate and to route: ranges are contiguous, so when
        one shard owns both it owns every id between, and the request
        (always, with one shard; usually, for a small request on large
        ranges) is handed back as it came, with no per-id search.
        Otherwise, one stable sort of the owners and a cut at every
        change of owner.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if len(node_ids) == 0:
            return {}
        low, high = self._check(node_ids)
        first = bisect_right(self._ends, low)
        if first == bisect_right(self._ends, high):
            return {first: (np.arange(len(node_ids)), node_ids)}
        owners = np.searchsorted(self._boundaries, node_ids, side="right")
        order = np.argsort(owners, kind="stable")
        sorted_owners = owners[order]
        sorted_ids = node_ids[order]
        cuts = np.flatnonzero(sorted_owners[1:] != sorted_owners[:-1]) + 1
        bounds = [0, *cuts.tolist(), len(order)]
        return {
            int(sorted_owners[lo]): (order[lo:hi], sorted_ids[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        }

    def range_summaries(self) -> list[list[int]]:
        """Display form of per-shard ownership: ``[[start, end], ...]``."""
        return [list(r) for r in self.ranges]

    def split_range(
        self, shard: int, at: int
    ) -> "ShardRoutingTable":
        """A new table with ``shard``'s range cut at ``at`` (two shards)."""
        start, end = self.ranges[shard]
        if not start < at < end:
            raise ValueError(f"split point {at} outside ({start}, {end})")
        ranges = list(self.ranges)
        ranges[shard : shard + 1] = [(start, at), (at, end)]
        return ShardRoutingTable(ranges=tuple(ranges))

    def merge_ranges(self, shard: int) -> "ShardRoutingTable":
        """A new table with ``shard`` and ``shard + 1`` fused into one."""
        if shard + 1 >= self.n_shards:
            raise ValueError(f"shard {shard} has no right neighbour")
        ranges = list(self.ranges)
        ranges[shard : shard + 2] = [
            (self.ranges[shard][0], self.ranges[shard + 1][1])
        ]
        return ShardRoutingTable(ranges=tuple(ranges))
