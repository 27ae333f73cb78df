"""Circuit breaker around the embed/stream backend.

The classic closed → open → half-open state machine, on the simulated
clock: repeated backend failures (stalls, injected faults) trip the
breaker, which then fails fast — the server degrades to the cached tier
instead of burning a stall timeout per request.  After a recovery window
the breaker admits probe requests; enough consecutive probe successes
close it again, one probe failure re-opens it.

Every transition is counted in the ``serve.breaker.*`` metric family and
the current state is exported as a gauge, so a telemetry file tells the
whole story of a chaos run.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.metrics import MetricsRegistry

#: Breaker states.
STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"
BREAKER_STATES = (STATE_CLOSED, STATE_OPEN, STATE_HALF_OPEN)

#: Gauge encoding of the states (0 = healthy, 2 = tripped).
_STATE_CODES = {STATE_CLOSED: 0, STATE_HALF_OPEN: 1, STATE_OPEN: 2}

#: Consecutive failures that trip a closed breaker.
FAILURE_THRESHOLD = 3
#: Consecutive probe successes that close a half-open breaker.
HALF_OPEN_PROBES = 2
#: The ``breaker`` label of every series (the server has one breaker).
NAME = "backend"


class CircuitOpenError(RuntimeError):
    """A call was rejected because the breaker is open."""

    def __init__(self, name: str, retry_after_s: float) -> None:
        super().__init__(
            f"circuit {name!r} is open; retry in {retry_after_s:.3f}s"
        )
        self.name = name
        self.retry_after_s = retry_after_s


class CircuitBreaker:
    """Failure-counting breaker on a simulated clock.

    Args:
        recovery_seconds: how long an open breaker rejects calls before
            admitting half-open probes.
        clock: zero-argument callable returning the current simulated
            time (e.g. a :class:`repro.memsim.clock.VirtualClock`'s
            ``now`` via ``lambda: clock.now``).
        metrics: registry receiving the ``serve.breaker.*`` series.
    """

    def __init__(
        self,
        recovery_seconds: float,
        clock: Callable[[], float] = lambda: 0.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.recovery_seconds = recovery_seconds
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._opened_at = 0.0
        self._sync_gauge()

    # -- state -----------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, refreshing open → half-open on recovery expiry."""
        self._maybe_enter_half_open()
        return self._state

    @property
    def trips(self) -> int:
        """How many times the breaker has opened."""
        return int(self.metrics.value("serve.breaker.trips", breaker=NAME))

    def _sync_gauge(self) -> None:
        self.metrics.gauge("serve.breaker.state", breaker=NAME).set(
            _STATE_CODES[self._state]
        )

    def _transition(self, to_state: str) -> None:
        if to_state == self._state:
            return
        self.metrics.counter(
            "serve.breaker.transitions",
            breaker=NAME,
            from_state=self._state,
            to_state=to_state,
        ).inc()
        if to_state == STATE_OPEN:
            self.metrics.counter("serve.breaker.trips", breaker=NAME).inc()
            self._opened_at = self.clock()
        self._state = to_state
        self._sync_gauge()

    def _maybe_enter_half_open(self) -> None:
        if (
            self._state == STATE_OPEN
            and self.clock() >= self._opened_at + self.recovery_seconds
        ):
            self._probe_successes = 0
            self._transition(STATE_HALF_OPEN)

    # -- the caller-facing protocol --------------------------------------

    def allow(self) -> bool:
        """May the next backend call proceed?

        Closed: always.  Open: only once the recovery window has passed
        (which moves the breaker to half-open).  Half-open: yes — the
        call is a probe whose outcome decides the next transition.
        """
        if self._state == STATE_OPEN:
            self._maybe_enter_half_open()
            if self._state == STATE_OPEN:
                self.metrics.counter(
                    "serve.breaker.rejections", breaker=NAME
                ).inc()
                return False
        return True

    def check(self) -> None:
        """Raise :class:`CircuitOpenError` unless a call may proceed."""
        if not self.allow():
            remaining = (
                self._opened_at + self.recovery_seconds - self.clock()
            )
            raise CircuitOpenError(NAME, max(remaining, 0.0))

    def record_success(self) -> None:
        """Report a successful backend call."""
        self._consecutive_failures = 0
        if self._state == STATE_HALF_OPEN:
            self._probe_successes += 1
            self.metrics.counter(
                "serve.breaker.probe_successes", breaker=NAME
            ).inc()
            if self._probe_successes >= HALF_OPEN_PROBES:
                self._transition(STATE_CLOSED)

    def record_failure(self) -> None:
        """Report a failed backend call (stall, fault, timeout)."""
        self.metrics.counter("serve.breaker.failures", breaker=NAME).inc()
        if self._state == STATE_HALF_OPEN:
            # One failed probe re-trips immediately.
            self._probe_successes = 0
            self._transition(STATE_OPEN)
            return
        self._consecutive_failures += 1
        if (
            self._state == STATE_CLOSED
            and self._consecutive_failures >= FAILURE_THRESHOLD
        ):
            self._consecutive_failures = 0
            self._transition(STATE_OPEN)
