"""The critical-path invariant: blame sums to simulated latency.

Blame is produced *by construction* (the request's ledger is what
advances the serve clock, and it charges every float it advances by to
exactly one category), so ``ForensicsReport.verify`` is a consistency
check over the serialized records, not a re-derivation — if it fails,
the clock moved for a request outside its ledger and the forensics
layer is lying.
"""

from __future__ import annotations

from repro.obs.forensics.records import BLAME_CATEGORIES

#: Relative tolerance of the sum invariant.  The charges are the exact
#: floats the clock advanced by; only summation order differs, so the
#: error is a few ulps — 1e-9 is ~7 orders of magnitude of headroom.
SUM_REL_TOL = 1e-9


def blame_total(blame: dict[str, float]) -> float:
    """Total charged seconds across every category."""
    return sum(blame.values())


def blame_fractions(blame: dict[str, float]) -> dict[str, float]:
    """Category shares of the charged total (empty when nothing charged).

    Computed against the charged sum (not the clocked latency), so the
    fractions of a valid tree sum to 1.0 up to a couple of ulps.
    """
    total = blame_total(blame)
    if total <= 0.0:
        return {}
    return {category: value / total for category, value in blame.items()}


def merge_blame(
    into: dict[str, dict[str, float]], klass: str, blame: dict[str, float]
) -> None:
    """Accumulate one request's blame into a per-class attribution table."""
    bucket = into.setdefault(klass, {})
    for category, value in blame.items():
        bucket[category] = bucket.get(category, 0.0) + value


def ordered_categories(blame: dict[str, float]) -> list[str]:
    """Known categories in canonical order, then any unknown extras."""
    known = [c for c in BLAME_CATEGORIES if c in blame]
    extras = sorted(c for c in blame if c not in BLAME_CATEGORIES)
    return known + extras
