"""A served request's ledger and its one record.

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

The :class:`RequestForensics` ledger *is* the request's clock advance:
``EmbeddingServer`` builds it at the dequeue moment, and every second
the request pays for is one ledger call that advances the serve clock
by that float and charges the same float to a blame category.  The
ledger keeps only what each call was handed; :meth:`to_record` builds
the node list from that, so a run without a stream builds none.
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
    """One request's blame ledger: the only code that advances the serve
    clock on the request's behalf.

    Built with the serve clock at the dequeue moment, it charges the
    admission-queue wait; :meth:`stall` and :meth:`served` each advance
    the clock by the seconds the request paid and charge the same
    floats to ``blame`` (zero charges skipped), so ``blame`` sums to the
    request's end-to-end simulated latency by construction, also for a
    request whose handler an exception tore.  Built without a clock (a
    shed request), it charges nothing.  Each call keeps only what it
    was handed — rung, clock time, and the stall seconds, the backend
    response or the skip reason — and :meth:`to_record` builds the
    causal nodes from them.
    """

    __slots__ = (
        "request_id",
        "klass",
        "arrival_s",
        "deadline_s",
        "n_nodes",
        "blame",
        "partial",
        "_clock",
        "_wait",
        "_steps",
    )

    def __init__(self, request: Any, clock: Any = None) -> None:
        self.request_id = request.request_id
        self.klass = request.klass
        self.arrival_s = request.arrival_s
        self.deadline_s = request.deadline_s
        self.n_nodes = request.n_nodes
        self.blame: dict[str, float] = {}
        #: True when an unhandled exception tore the handler: the record
        #: carries what was charged up to the tear, which still sums to
        #: the latency.
        self.partial = False
        self._clock = clock
        #: (rung, clock time, stall seconds | backend response | skip
        #: reason) per ladder step, in order.
        self._steps: list[tuple[str, float, Any]] = []
        # Everything from arrival to the dequeue moment is queue wait.
        self._wait = 0.0
        if clock is not None:
            wait = clock.now - self.arrival_s
            if wait > 0.0:
                self._wait = self.blame[BLAME_QUEUE] = wait

    # -- the charging sites ------------------------------------------------

    def _advance(
        self, rung: str, handed: Any, seconds: float, charges: Any
    ) -> None:
        clock = self._clock
        self._steps.append((rung, clock.now, handed))
        blame = self.blame
        for category, value in charges:
            value = float(value)
            if value:
                blame[category] = blame.get(category, 0.0) + value
        clock.advance(seconds)

    def stall(self, rung: str, seconds: float) -> None:
        """A compute call hung past its budget: the budget was burned
        waiting, then the call was abandoned (a breaker failure)."""
        self._advance(rung, seconds, seconds, ((BLAME_BREAKER, seconds),))

    def served(self, rung: str, response: Any) -> None:
        """The rung that served: pay ``response.sim_seconds``.

        ``response.breakdown`` values sum exactly to
        ``response.sim_seconds`` by construction (the backend builds the
        kernel share as the residual), so charging them individually
        preserves the sum invariant.
        """
        self._advance(
            rung, response, response.sim_seconds, response.breakdown.items()
        )

    def skip(self, rung: str, reason: str) -> None:
        """A rung skipped for free (deadline prediction / open breaker /
        partial shard result) — zero cost, but part of the causal path."""
        self._steps.append((rung, self._clock.now, reason))

    # -- serialization ----------------------------------------------------

    def _nodes(self) -> tuple[list[tuple], list[int]]:
        """The causal nodes below the root, and the lookup sequences."""
        nodes: list[tuple[str, str | None, float, float, dict, bool]] = []
        seqs: list[int] = []
        if self._wait > 0.0:
            nodes.append(
                ("queue_wait", BLAME_QUEUE, self.arrival_s, self._wait, {}, False)
            )
        for rung, now, handed in self._steps:
            name = f"rung:{rung}"
            if isinstance(handed, str):
                attrs = {"outcome": "skipped", "reason": handed}
                nodes.append((name, None, now, 0.0, attrs, False))
            elif isinstance(handed, (int, float)):
                attrs = {"outcome": "stall_abandoned"}
                nodes.append((name, None, now, handed, attrs, False))
                nodes.append(("stall_burn", BLAME_BREAKER, now, handed, {}, True))
            else:
                _served_nodes(nodes, seqs, name, now, handed)
        return nodes, seqs

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
        nodes, seqs = self._nodes()
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
            "lookup_seqs": seqs,
            "partial": self.partial,
            "nodes": nodes,
        }


def _served_nodes(
    nodes: list[tuple], seqs: list[int], name: str, now: float, response: Any
) -> None:
    """The served rung's node and its children: the backend's cost
    breakdown, itemized per shard when the store gathered from shards."""
    attrs: dict[str, Any] = {"outcome": "served"}
    seq = response.lookup_seq
    if seq is not None:
        attrs["seq"] = int(seq)
        seqs.append(int(seq))
    stale_rows = int(response.stale_rows)
    if stale_rows:
        attrs["stale_rows"] = stale_rows
    nodes.append((name, None, now, float(response.sim_seconds), attrs, False))
    # Children of the rung node, laid out sequentially inside the
    # rung's advance window so the waterfall has real extents.
    cursor = now
    breakdown = response.breakdown
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
        share = _SHARE_NODE.get(category, category)
        nodes.append((share, category, cursor, seconds, {}, True))
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
        nodes.append(
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
