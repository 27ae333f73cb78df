"""The scatter-gather routing table over contiguous shard ranges.

The embedding table is split into contiguous *node-id* ranges, so
routing stays an O(log N) binary search.  The initial ranges are cut by
the SpMM allocator's own functions
(:func:`~repro.core.eata.entropy_aware_bounds` when degrees are known,
:func:`~repro.core.eata.round_robin_bounds` when not): hot, scattered
regions of the graph land on smaller shards, equalizing per-shard load
the way EaTA equalizes per-thread completion times.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ShardRoutingTable:
    """Maps node ids onto contiguous shard ranges.

    Immutable: a reshard builds a new table (:meth:`split_range`) and
    swaps it in.  Lookups are vectorized binary searches.
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

    def _check(self, node_ids: np.ndarray) -> int:
        """The largest of non-empty ``node_ids``, all checked in range.

        One pass over the unsigned view, where a negative id reads as
        larger than any table (``argmax`` is several times cheaper than
        a ``max`` reduction on a short request); the smallest and
        largest signed ids are taken only for the error.
        """
        unsigned = node_ids.view(np.uint64)
        high = unsigned.item(unsigned.argmax())
        if high >= self._ends[-1]:
            low, high = int(node_ids.min()), int(node_ids.max())
            raise ValueError(
                f"node ids outside [0, {self.n_nodes}): [{low}, {high}]"
            )
        return high

    def shard_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Owning shard of every node id (vectorized)."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if len(node_ids):
            self._check(node_ids)
        return np.searchsorted(self._boundaries, node_ids, side="right")

    def split(
        self, node_ids: np.ndarray
    ) -> dict[int, tuple[np.ndarray | slice, np.ndarray]]:
        """Group a lookup by shard: ``{shard: (positions, node_ids)}``.

        ``positions`` index back into the original request order, so
        gathered rows scatter straight into the caller's output buffer.
        Shards ascend, positions ascend within a shard, and an empty
        request gives ``{}``.  Ranges are contiguous, so the shard that
        owns the smallest and the largest id owns every id between: then
        (always, with one shard; usually, for a small request on large
        ranges) the request is handed back as it came, with
        ``slice(None)`` for positions and no per-id search.  Otherwise,
        one stable sort of the owners and a cut at every change of
        owner.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if len(node_ids) == 0:
            return {}
        last = bisect_right(self._ends, self._check(node_ids))
        if last == 0 or last == bisect_right(
            self._ends, node_ids.item(node_ids.argmin())
        ):
            return {last: (slice(None), node_ids)}
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
