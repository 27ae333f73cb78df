"""Per-request causal trees: the collector and its one record.

Every request the server resolves becomes exactly one ``serve_request``
record on the run's telemetry stream.  The record carries the request
itself (class, status, fidelity, arrival, deadline, latency, blame,
lookup sequences, ``partial``) and its causal nodes in the order they
happened: queue wait, each degradation rung attempted, per-shard gather
legs, stall burns.  Each node carries the blame *category* its simulated
seconds are charged to, so the tree is not just a timeline: summing the
categorized node durations reconstructs the request's total simulated
latency exactly (the critical-path invariant ``repro why`` and the
forensics CI job assert).  A JSONL line is written whole or not at all,
so a reader sees a request's whole tree or none of it.

The :class:`RequestForensics` collector is the server-side producer: it
rides along ``EmbeddingServer._handle`` / ``_serve_ladder``, observing
every ``clock.advance`` the request pays for, and becomes the record at
response time.  It never changes a simulated cost — forensics is a
read-only shadow of the event loop.
"""

from __future__ import annotations

from typing import Any

#: Blame categories, matching the paper's Fig. 13 tail-latency
#: decomposition (see DESIGN §6f).  Every simulated second of a
#: request's latency lands in exactly one bucket.
BLAME_QUEUE = "queue"
BLAME_BREAKER = "breaker"
BLAME_SHARD_HEDGE = "shard_hedge"
BLAME_STALE_FALLBACK = "stale_fallback"
BLAME_KERNEL = "kernel"
BLAME_CATEGORIES = (
    BLAME_QUEUE,
    BLAME_BREAKER,
    BLAME_SHARD_HEDGE,
    BLAME_STALE_FALLBACK,
    BLAME_KERNEL,
)

#: Node name of a backend breakdown share that is not itemized per
#: shard, by blame category (any other category names its own node).
_SHARE_NODE = {
    BLAME_KERNEL: "kernel",
    BLAME_BREAKER: "stall_absorbed",
    BLAME_STALE_FALLBACK: "stale_read",
}

#: Name of the root node of every request tree.
ROOT_NODE = "request"


class RequestForensics:
    """Per-request causal collector riding the serving event loop.

    The server creates one per handled request, calls the ``record_*``
    hooks at every site that advances the virtual clock on the
    request's behalf, and finally writes the request with
    :meth:`to_record`.  ``blame`` accumulates the same seconds bucketed
    by category; its values always sum to the seconds the hooks saw,
    which (queue wait included) is the request's end-to-end simulated
    latency.
    """

    __slots__ = (
        "request_id",
        "klass",
        "arrival_s",
        "deadline_s",
        "n_nodes",
        "blame",
        "lookup_seqs",
        "partial",
        "_nodes",
    )

    def __init__(
        self,
        request_id: str,
        klass: str,
        arrival_s: float,
        deadline_s: float,
        n_nodes: int = 0,
    ) -> None:
        self.request_id = request_id
        self.klass = klass
        self.arrival_s = arrival_s
        self.deadline_s = deadline_s
        self.n_nodes = n_nodes
        self.blame: dict[str, float] = {}
        #: Store lookup sequence numbers this request's gathers used —
        #: the coordinate incident records are joined on.
        self.lookup_seqs: list[int] = []
        #: True when the collector missed part of the request's life
        #: (an unhandled exception tore the handler): the tree is still
        #: emitted, but exempt from the blame-sum invariant.
        self.partial = False
        #: Flat child-node list: (name, category, sim_start, sim_seconds,
        #: attributes, under_rung).
        self._nodes: list[tuple[str, str | None, float, float, dict, bool]] = []

    # -- producer hooks ---------------------------------------------------

    def _charge(self, category: str, seconds: float) -> None:
        if seconds:
            self.blame[category] = self.blame.get(category, 0.0) + seconds

    def begin_handling(self, now: float) -> None:
        """Dequeue moment: everything before it is admission-queue wait."""
        wait = max(0.0, now - self.arrival_s)
        self._charge(BLAME_QUEUE, wait)
        if wait > 0.0:
            self._nodes.append(
                ("queue_wait", BLAME_QUEUE, self.arrival_s, wait, {}, False)
            )

    def record_skip(self, rung: str, reason: str, now: float) -> None:
        """A rung skipped for free (deadline prediction / open breaker /
        partial shard result) — zero cost, but part of the causal path."""
        self._nodes.append(
            (
                f"rung:{rung}",
                None,
                now,
                0.0,
                {"outcome": "skipped", "reason": reason},
                False,
            )
        )

    def record_stall(self, rung: str, seconds: float, now: float) -> None:
        """A compute call hung past its budget: the budget was burned
        waiting, then the call was abandoned (a breaker failure)."""
        self._charge(BLAME_BREAKER, seconds)
        self._nodes.append(
            (
                f"rung:{rung}",
                None,
                now,
                seconds,
                {"outcome": "stall_abandoned"},
                False,
            )
        )
        self._nodes.append(
            ("stall_burn", BLAME_BREAKER, now, seconds, {}, True)
        )

    def record_backend(self, rung: str, response: Any, now: float) -> None:
        """The rung that served: unpack the backend's cost breakdown.

        ``response.breakdown`` values sum exactly to
        ``response.sim_seconds`` by construction (the backend builds the
        kernel share as the residual), so charging them individually
        preserves the sum invariant.
        """
        total = float(response.sim_seconds)
        breakdown = response.breakdown
        attrs: dict[str, Any] = {"outcome": "served"}
        seq = response.lookup_seq
        if seq is not None:
            attrs["seq"] = int(seq)
            self.lookup_seqs.append(int(seq))
        stale_rows = int(response.stale_rows)
        if stale_rows:
            attrs["stale_rows"] = stale_rows
        self._nodes.append((f"rung:{rung}", None, now, total, attrs, False))
        # Children of the rung node, laid out sequentially inside the
        # rung's advance window so the waterfall has real extents.
        cursor = now
        for category, seconds in breakdown.items():
            self._charge(category, float(seconds))
        shard_details = response.shard_details
        non_shard = breakdown
        if shard_details:
            # Per-shard nodes replace the aggregate gather shares: the
            # kernel residual keeps only the compute+fresh-gather part
            # not itemized per shard.
            non_shard = dict(breakdown)
            non_shard[BLAME_KERNEL] = (
                non_shard.get(BLAME_KERNEL, 0.0)
                - sum(
                    float(d["sim_seconds"])
                    for d in shard_details
                    if not d.get("stale")
                )
            )
            non_shard.pop(BLAME_SHARD_HEDGE, None)
        for category, seconds in non_shard.items():
            seconds = float(seconds)
            if seconds <= 0.0:
                continue
            self._nodes.append(
                (
                    _SHARE_NODE.get(category, category),
                    category,
                    cursor,
                    seconds,
                    {},
                    True,
                )
            )
            cursor += seconds
        for detail in shard_details:
            seconds = float(detail["sim_seconds"])
            stale = bool(detail.get("stale"))
            shard_attrs = {
                "shard": int(detail["shard"]),
                "status": detail.get("status"),
                "rows": int(detail.get("rows", 0)),
            }
            penalty = float(detail.get("hedge_penalty_s", 0.0) or 0.0)
            if penalty:
                shard_attrs["hedge_penalty_s"] = penalty
            if seq is not None:
                shard_attrs["seq"] = int(seq)
            self._nodes.append(
                (
                    f"shard:{detail['shard']}",
                    BLAME_SHARD_HEDGE if stale else BLAME_KERNEL,
                    cursor,
                    seconds,
                    shard_attrs,
                    True,
                )
            )
            cursor += seconds

    # -- serialization ----------------------------------------------------

    def to_record(
        self,
        trace_id: str,
        status: str,
        fidelity: str | None,
        completed_s: float | None,
        stale_rows: int,
    ) -> dict[str, Any]:
        """The request's one ``serve_request`` record.

        ``nodes`` lists the tree below the root in causal order, each as
        ``[name, category, sim_start, sim_seconds, attributes,
        under_rung]``: ``under_rung`` hangs a node under the latest
        ``rung:*`` node before it (the root when there is none), so the
        tree is request -> rungs -> (kernel / stall / shard) leaves.
        """
        return {
            "type": "serve_request",
            "trace_id": trace_id,
            "request_id": self.request_id,
            "klass": self.klass,
            "status": status,
            "fidelity": fidelity,
            "arrival_s": self.arrival_s,
            "deadline_s": self.deadline_s,
            "n_nodes": self.n_nodes,
            "latency_s": (
                completed_s - self.arrival_s
                if completed_s is not None
                else None
            ),
            "stale_rows": stale_rows,
            "blame": self.blame,
            "lookup_seqs": self.lookup_seqs,
            "partial": self.partial,
            "nodes": self._nodes,
        }
