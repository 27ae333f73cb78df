"""Typed failures of the sharded embedding store.

Shard faults are expected events, so every failure mode carries a
precise type the callers dispatch on: the supervisor reacts to
:class:`ShardCrashError` / :class:`ShardTimeoutError` by repairing the
shard, and the scatter-gather path converts them into hedged reads —
surfacing :class:`PartialResultError` only when even the
stale-checkpoint tier cannot cover a range.
"""

from __future__ import annotations


class ShardError(RuntimeError):
    """Base class of every shard-store failure."""


class ShardCrashError(ShardError):
    """A shard process died (or was unreachable) during a call."""

    def __init__(self, shard_id: int, detail: str) -> None:
        super().__init__(f"shard {shard_id} crashed: {detail}")
        self.shard_id = shard_id
        self.detail = detail


class CheckpointCorruptionError(ShardCrashError):
    """No verified checkpoint survives for a shard.

    Raised when recovery walks the shard's WAL from newest to oldest and
    every record fails CRC verification (all quarantined).  Subclasses
    :class:`ShardCrashError` so the hedging ladder treats it as the
    checkpoint tier being unavailable rather than crashing the caller.
    """

    def __init__(self, shard_id: int, quarantined: int) -> None:
        super().__init__(
            shard_id,
            f"no verified checkpoint ({quarantined} quarantined)",
        )
        self.quarantined = quarantined


class ShardTimeoutError(ShardError):
    """One shard call outlived its per-shard deadline."""

    def __init__(self, shard_id: int, deadline_s: float) -> None:
        super().__init__(
            f"shard {shard_id} missed its {deadline_s:.3f}s deadline"
        )
        self.shard_id = shard_id
        self.deadline_s = deadline_s


class PartialResultError(ShardError):
    """A scatter-gather lookup could not cover every requested range.

    Carries exactly which node ranges went unserved (``missing_ranges``)
    and which were served from the stale-checkpoint tier
    (``stale_ranges``), each as ``(shard_id, row_start, row_end)``
    tuples, so the serving ladder can degrade per-shard instead of
    failing the whole request.
    """

    def __init__(
        self,
        missing_ranges: tuple[tuple[int, int, int], ...],
        stale_ranges: tuple[tuple[int, int, int], ...] = (),
    ) -> None:
        missing = ", ".join(
            f"shard {s}: [{a}, {b})" for s, a, b in missing_ranges
        )
        super().__init__(f"unserved embedding ranges: {missing or 'none'}")
        self.missing_ranges = tuple(missing_ranges)
        self.stale_ranges = tuple(stale_ranges)
