"""Cost ledgers for simulated execution.

:class:`CostTrace` accumulates simulated seconds per operation category
(the five SpMM steps of Algorithm 1: ``read_index``, ``get_sparse_nnz``,
``get_dense_nnz``, ``accumulate``, ``write_result``) plus any auxiliary
categories (prefetch maintenance, streaming loads, allocation overhead).
It backs the execution-time breakdown of Fig. 7(a) and the overhead
accounting of §IV-C/§IV-D ("allocation under 1% of runtime", "EaTA+WoFP
overhead below 3.17%").
"""

from __future__ import annotations

from collections import defaultdict


#: Category names for the five steps of Algorithm 1, in execution order.
SPMM_CATEGORIES = (
    "read_index",
    "get_sparse_nnz",
    "get_dense_nnz",
    "accumulate",
    "write_result",
)


class CostTrace:
    """Accumulates simulated seconds and byte counts per category."""

    def __init__(self) -> None:
        self._seconds: dict[str, float] = defaultdict(float)
        self._bytes: dict[str, float] = defaultdict(float)

    def charge(self, category: str, seconds: float, nbytes: float = 0.0) -> None:
        """Record ``seconds`` of simulated time against a category."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self._seconds[category] += seconds
        self._bytes[category] += nbytes

    def seconds(self, category: str) -> float:
        """Total simulated seconds charged to a category."""
        return self._seconds.get(category, 0.0)

    def bytes_moved(self, category: str) -> float:
        """Total bytes recorded against a category."""
        return self._bytes.get(category, 0.0)

    @property
    def total_seconds(self) -> float:
        """Sum of all charged seconds."""
        return sum(self._seconds.values())

    def breakdown(self) -> dict[str, float]:
        """Per-category seconds, as a plain dict."""
        return dict(self._seconds)

    def fraction(self, category: str) -> float:
        """Share of the total attributable to one category (0 if empty)."""
        total = self.total_seconds
        if total == 0.0:
            return 0.0
        return self.seconds(category) / total

    def merge(self, other: "CostTrace") -> None:
        """Fold another trace's charges into this one.

        Per-thread ledgers are accumulated independently and merged at
        barriers; the exporter merges per-SpMM ledgers the same way.
        """
        for category, seconds in other._seconds.items():
            self._seconds[category] += seconds
        for category, nbytes in other._bytes.items():
            self._bytes[category] += nbytes

    def copy(self) -> "CostTrace":
        """An independent trace holding the same charges, in the same order."""
        twin = CostTrace()
        twin._seconds.update(self._seconds)
        twin._bytes.update(self._bytes)
        return twin

    def to_dict(self) -> dict[str, dict[str, float]]:
        """Round-trippable plain-dict form (JSON-serializable)."""
        return {
            "seconds": dict(self._seconds),
            "bytes": dict(self._bytes),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, dict[str, float]]) -> "CostTrace":
        """Rebuild a trace from :meth:`to_dict` output."""
        trace = cls()
        for category, seconds in payload.get("seconds", {}).items():
            trace._seconds[category] += float(seconds)
        for category, nbytes in payload.get("bytes", {}).items():
            trace._bytes[category] += float(nbytes)
        return trace

    def reset(self) -> None:
        """Clear all accumulated charges."""
        self._seconds.clear()
        self._bytes.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{category}={seconds:.3g}s"
            for category, seconds in sorted(self._seconds.items())
        )
        return f"CostTrace({parts})"
