"""The serving event clock.

:class:`VirtualClock` is the single monotonic clock of the serving layer
(:mod:`repro.serve`): request arrivals, queue waits, backend service and
circuit-breaker recovery windows are all positions on it, so a replayed
request trace is deterministic down to the tie-breaks.

It is a position, not a total.  A parallel kernel phase keeps no clock:
:meth:`repro.core.spmm.SpMMEngine.multiply` returns the makespan over its
per-thread Eq. 2 times, and every other simulated charge is the return
value of the call that incurs it.
"""

from __future__ import annotations


class VirtualClock:
    """A single monotonically advancing simulated clock.

    A global event-time cursor: the serving
    event loop advances it past arrivals, queue waits and service times,
    and components that need "now" (deadline checks, breaker recovery)
    read :attr:`now`.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move forward by ``seconds``; returns the new time."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move forward to ``timestamp`` (no-op if already past it)."""
        if timestamp > self._now:
            self._now = float(timestamp)
        return self._now
