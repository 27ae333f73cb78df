"""Tail-latency forensics: per-request critical-path attribution.

Every request the serving loop resolves is emitted as a causal tree of
``forensic_span`` records on the live bus; this package holds the
producer (:class:`RequestForensics`), the reconstruction and
incident-join machinery, the blame-sum invariant, the bounded exemplar
reservoir, and the renderers behind ``repro why`` / ``repro attribute``.
"""

from repro.obs.forensics.blame import (
    SUM_REL_TOL,
    blame_fractions,
    blame_total,
    verify_tree,
)
from repro.obs.forensics.fold import ForensicsReport, fold_stream
from repro.obs.forensics.records import (
    BLAME_BREAKER,
    BLAME_CATEGORIES,
    BLAME_KERNEL,
    BLAME_QUEUE,
    BLAME_SHARD_HEDGE,
    BLAME_STALE_FALLBACK,
    FORENSIC_RECORD_TYPE,
    RequestForensics,
    next_forensic_uid,
)
from repro.obs.forensics.reservoir import ExemplarReservoir
from repro.obs.forensics.tree import (
    ForensicNode,
    RequestTree,
    build_tree,
    extract_incidents,
    join_incidents,
)
from repro.obs.forensics.waterfall import (
    describe_incident,
    format_seconds,
    render_waterfall,
)

__all__ = [
    "BLAME_BREAKER",
    "BLAME_CATEGORIES",
    "BLAME_KERNEL",
    "BLAME_QUEUE",
    "BLAME_SHARD_HEDGE",
    "BLAME_STALE_FALLBACK",
    "FORENSIC_RECORD_TYPE",
    "SUM_REL_TOL",
    "ExemplarReservoir",
    "ForensicNode",
    "ForensicsReport",
    "RequestForensics",
    "RequestTree",
    "blame_fractions",
    "blame_total",
    "build_tree",
    "describe_incident",
    "extract_incidents",
    "fold_stream",
    "format_seconds",
    "join_incidents",
    "next_forensic_uid",
    "render_waterfall",
    "verify_tree",
]
