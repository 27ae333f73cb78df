"""The process round-trip part of the serve workload's yardstick.

Time spent waking another process does not drift with the machine the
way compute does, so ``serve_sharded`` is normalised by a yardstick with
its own mix of the two: scipy products (``workloads.py``) plus round
trips through a ``multiprocessing.Queue`` pair, the shard store's own
transport, to a child that does nothing but echo.  This module imports
nothing heavy because the spawned child imports it.
"""

from __future__ import annotations

import multiprocessing
import time


def _echo(requests, replies) -> None:
    while True:
        message = requests.get()
        if message is None:
            return
        replies.put(message)


class QueueEcho:
    """One echo child and the queue pair to it."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._requests = ctx.Queue()
        self._replies = ctx.Queue()
        self._process = ctx.Process(
            target=_echo, args=(self._requests, self._replies), daemon=True
        )
        self._process.start()
        self.round_trips(1, b"ready")  # the child is up before timing

    def round_trips(self, count: int, payload) -> float:
        """Seconds for ``count`` request/reply pairs carrying ``payload``."""
        start = time.perf_counter()
        for _ in range(count):
            self._requests.put(payload)
            self._replies.get(timeout=30.0)
        return time.perf_counter() - start

    def close(self) -> None:
        self._requests.put(None)
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - stuck child
            self._process.terminate()
            self._process.join(timeout=5.0)
        for channel in (self._requests, self._replies):
            channel.close()
            channel.join_thread()
