"""Synthetic embedding-request traces.

A serving experiment replays a :class:`RequestTrace` — a deterministic,
JSON-serializable list of :class:`ServeRequest` — against the
:class:`~repro.serve.server.EmbeddingServer`.  Traces are generated from
a seed (:meth:`RequestTrace.synthesize`), so any chaos run can be
replayed exactly, and saved/loaded in the CLI's ``--trace`` format.

Request classes model the serving mix of low-latency GNN systems:
``interactive`` requests are small lookups with tight deadlines that may
degrade all the way to the cached tier; ``batch`` requests are large
scoring jobs with loose deadlines whose ladder skips the mid rung (full
fidelity or the cache — a half-fresh batch job helps nobody).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Recognised request classes.
REQUEST_CLASSES = ("interactive", "batch")

#: Share of synthesized requests that are interactive (1–16 nodes); the
#: rest are batch (16–``MAX_BATCH_NODES`` nodes).
INTERACTIVE_FRACTION = 0.8
MAX_BATCH_NODES = 256


@dataclass(frozen=True)
class ServeRequest:
    """One embedding request.

    Attributes:
        request_id: unique identifier within the trace.
        arrival_s: arrival time on the serving clock, seconds.
        klass: one of :data:`REQUEST_CLASSES`.
        n_nodes: how many node embeddings the request asks for.
        deadline_s: latency budget relative to arrival, seconds.
    """

    request_id: str
    arrival_s: float
    klass: str
    n_nodes: int
    deadline_s: float

    def __post_init__(self) -> None:
        if self.klass not in REQUEST_CLASSES:
            raise ValueError(
                f"klass must be one of {REQUEST_CLASSES}, got {self.klass!r}"
            )
        if self.arrival_s < 0:
            raise ValueError(f"arrival_s must be >= 0, got {self.arrival_s}")
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {self.deadline_s}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form."""
        return {
            "request_id": self.request_id,
            "arrival_s": self.arrival_s,
            "klass": self.klass,
            "n_nodes": self.n_nodes,
            "deadline_s": self.deadline_s,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ServeRequest":
        """Rebuild a request from :meth:`to_dict` output.

        Raises:
            ValueError: naming the field that is missing or mistyped
                (``n_nodes`` must be an integer, ``arrival_s`` /
                ``deadline_s`` finite numbers) or out of range.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"a request must be an object, got {payload!r}")
        for name in ("request_id", "klass", "arrival_s", "n_nodes",
                     "deadline_s"):
            if name not in payload:
                raise ValueError(f"request field {name!r} is missing")
        for name in ("arrival_s", "n_nodes", "deadline_s"):
            value = payload[name]
            finite = isinstance(value, int) or (
                isinstance(value, float) and math.isfinite(value)
            )
            if (
                isinstance(value, bool)
                or not finite
                or (name == "n_nodes" and value != int(value))
            ):
                want = "an integer" if name == "n_nodes" else "a finite number"
                raise ValueError(
                    f"request field {name!r} must be {want}, got {value!r}"
                )
        return cls(
            request_id=str(payload["request_id"]),
            arrival_s=float(payload["arrival_s"]),
            klass=payload["klass"],
            n_nodes=int(payload["n_nodes"]),
            deadline_s=float(payload["deadline_s"]),
        )


@dataclass(frozen=True)
class RequestTrace:
    """An immutable, replayable request sequence (sorted by arrival)."""

    requests: tuple[ServeRequest, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.requests, key=lambda r: (r.arrival_s, r.request_id))
        )
        object.__setattr__(self, "requests", ordered)

    def __len__(self) -> int:
        return len(self.requests)

    @classmethod
    def synthesize(
        cls,
        seed: int,
        n_requests: int = 500,
        per_node_cost_s: float = 1e-5,
        load: float = 0.8,
        deadline_slack: float = 20.0,
    ) -> "RequestTrace":
        """Seeded open-loop trace generator.

        ``per_node_cost_s`` is the backend's full-fidelity cost per
        requested node (e.g. ``backend.compute_cost(1)``).  The expected
        per-request service time follows from the class mix — batch
        requests ask for far more nodes than interactive ones — and
        arrivals are Poisson at rate ``load / expected_service``, so
        ``load`` really is the offered utilization of a single healthy
        full-fidelity worker.  Each request's deadline is
        ``deadline_slack`` times its *own class's* expected service time
        (10x looser for batch), jittered +/-50%.
        """
        import numpy as np

        if n_requests < 0:
            raise ValueError(f"n_requests must be >= 0, got {n_requests}")
        if not 0.0 < load:
            raise ValueError(f"load must be > 0, got {load}")
        if per_node_cost_s <= 0:
            raise ValueError(
                f"per_node_cost_s must be > 0, got {per_node_cost_s}"
            )
        rng = np.random.default_rng(seed)
        # Expected node counts of each class (uniform integer draws).
        mean_interactive_nodes = (1 + 16) / 2.0
        mean_batch_nodes = (16 + MAX_BATCH_NODES) / 2.0
        interactive_service = per_node_cost_s * mean_interactive_nodes
        batch_service = per_node_cost_s * mean_batch_nodes
        expected_service = (
            INTERACTIVE_FRACTION * interactive_service
            + (1.0 - INTERACTIVE_FRACTION) * batch_service
        )
        interarrival = expected_service / load
        arrivals = np.cumsum(rng.exponential(interarrival, size=n_requests))
        requests = []
        for i in range(n_requests):
            interactive = rng.random() < INTERACTIVE_FRACTION
            if interactive:
                klass = "interactive"
                n_nodes = int(rng.integers(1, 17))
                deadline = deadline_slack * interactive_service * float(
                    rng.uniform(0.5, 1.5)
                )
            else:
                klass = "batch"
                n_nodes = int(rng.integers(16, MAX_BATCH_NODES + 1))
                deadline = 10.0 * deadline_slack * batch_service * float(
                    rng.uniform(0.5, 1.5)
                )
            requests.append(
                ServeRequest(
                    request_id=f"r{i:05d}",
                    arrival_s=float(arrivals[i]),
                    klass=klass,
                    n_nodes=n_nodes,
                    deadline_s=deadline,
                )
            )
        return cls(requests=tuple(requests), seed=seed)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form."""
        return {
            "seed": self.seed,
            "requests": [request.to_dict() for request in self.requests],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RequestTrace":
        """Rebuild a trace from :meth:`to_dict` output."""
        if not isinstance(payload, dict):
            raise ValueError(f"a trace must be an object, got {payload!r}")
        requests = payload.get("requests", [])
        if not isinstance(requests, list):
            raise ValueError(
                f"trace field 'requests' must be a list, got {requests!r}"
            )
        return cls(
            requests=tuple(ServeRequest.from_dict(r) for r in requests),
            seed=payload.get("seed"),
        )

    def save(self, path: str | Path) -> Path:
        """Write the trace as JSON (the CLI's ``--trace`` format)."""
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RequestTrace":
        """Read a trace written by :meth:`save`.

        Raises:
            ValueError: the file is not a valid trace; the message names
                the file and the offending field.
        """
        try:
            return cls.from_dict(
                json.loads(Path(path).read_text(encoding="utf-8"))
            )
        except ValueError as err:
            raise ValueError(f"request trace {str(path)!r}: {err}") from None
