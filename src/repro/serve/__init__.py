"""Resilient embedding serving on the simulated clock.

``repro.serve`` turns the batch embedding pipeline into a serving
system and studies its behaviour under chaos: a bounded admission queue
with load shedding, per-request deadlines, a circuit breaker around the
compute backend, and a per-class graceful-degradation ladder (full ProNE
→ propagation-only → stale checkpoint rows).  Everything runs on one
:class:`~repro.memsim.clock.VirtualClock`, so a chaos run is exactly
replayable from a trace seed and a fault plan.
"""

from repro.serve.backend import (
    FIDELITY_FULL,
    FIDELITY_LEVELS,
    FIDELITY_PROPAGATION,
    FIDELITY_STALE,
    BackendResponse,
    EmbeddingBackend,
)
from repro.serve.breaker import (
    BREAKER_STATES,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
    CircuitOpenError,
)
from repro.serve.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServeError,
)
from repro.serve.server import (
    DEFAULT_LADDERS,
    RESPONSE_STATUSES,
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_SERVED,
    STATUS_SHED,
    EmbeddingServer,
    ServePolicy,
    ServeReport,
    ServeResponse,
)
from repro.serve.trace import REQUEST_CLASSES, RequestTrace, ServeRequest

__all__ = [
    "BREAKER_STATES",
    "BackendResponse",
    "CircuitBreaker",
    "CircuitOpenError",
    "DEFAULT_LADDERS",
    "DeadlineExceededError",
    "EmbeddingBackend",
    "EmbeddingServer",
    "FIDELITY_FULL",
    "FIDELITY_LEVELS",
    "FIDELITY_PROPAGATION",
    "FIDELITY_STALE",
    "QueueFullError",
    "REQUEST_CLASSES",
    "RESPONSE_STATUSES",
    "RequestTrace",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "STATUS_DEADLINE",
    "STATUS_FAILED",
    "STATUS_SERVED",
    "STATUS_SHED",
    "ServeError",
    "ServePolicy",
    "ServeReport",
    "ServeRequest",
    "ServeResponse",
]
