"""Differential oracle for the injector's one firing rule.

Before :meth:`FaultInjector.take` existed, the injector consumed a plan
through seven methods (``_consume``, ``should_crash``,
``take_transient_failure``, ``tier_loss``, ``take_backend_stall``,
``take_request_burst``, ``take_shard_fault``) plus ``pm_derate``.  That
class is kept below verbatim as the reference; for seeded plans over all
eleven kinds and query sequences over its eight entry points, the one
``take`` (and the new ``pm_derate``) must fire the same event, report
the same derating factor and leave the same ``faults.injected`` counts
after every step.

``_consume`` is only queried with the kinds its callers passed (the
:data:`COUNTED_KINDS`): on a one-shot kind it spent a burst size or a
sequence number one unit at a time, which no caller ever asked of it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.faults import (
    ALL_FAULT_KINDS,
    ARRIVAL_SITE,
    ASL_LOAD_SITE,
    BACKEND_SITE,
    COUNTED_KINDS,
    CRASH_PHASES,
    SHARD_SITE_KINDS,
    FaultEvent,
    FaultPlan,
)
from repro.obs.metrics import MetricsRegistry

# ---------------------------------------------------------------------------
# The reference: the injector as it stood before the one firing rule
# ---------------------------------------------------------------------------


class FaultInjector:
    """Stateful runtime consuming a :class:`FaultPlan`.

    Each event fires at most ``count`` times (once for crashes and tier
    losses); consumed events never re-fire, so a resumed run does not
    replay the crash that interrupted it.  All injections are counted
    in ``faults.injected`` (labelled by kind) on the supplied registry.
    """

    def __init__(
        self, plan: FaultPlan, metrics: "MetricsRegistry | None" = None
    ) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.plan = plan
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._remaining: list[list] = [
            [event, event.count] for event in plan.events
        ]

    def _consume(self, kind: str, site: str, n: int = 1) -> FaultEvent | None:
        for entry in self._remaining:
            event, remaining = entry
            if event.kind == kind and event.site == site and remaining >= n:
                entry[1] = remaining - n
                self.metrics.counter("faults.injected", kind=kind).inc(n)
                return event
        return None

    # -- per-kind queries the instrumented components call -----------------

    def should_crash(self, site: str, phase: str = "after_commit") -> bool:
        """Consume a crash event at a stage boundary, if one is armed."""
        for entry in self._remaining:
            event, remaining = entry
            if (
                event.kind == "crash"
                and event.site == site
                and event.phase == phase
                and remaining > 0
            ):
                entry[1] = remaining - 1
                self.metrics.counter("faults.injected", kind="crash").inc()
                return True
        return False

    def take_transient_failure(self, site: str = ASL_LOAD_SITE) -> bool:
        """Consume one transient failure at a load site, if armed."""
        return self._consume("transient_load", site) is not None

    def pm_derate(self) -> float:
        """Product of every armed PM-degradation factor (1.0 = healthy).

        Degradation events stay active once triggered — a slow DIMM does
        not recover — so this does not consume them, but the first call
        counts each event's injection.
        """
        factor = 1.0
        for entry in self._remaining:
            event, remaining = entry
            if event.kind == "pm_degrade":
                if remaining > 0:
                    entry[1] = 0
                    self.metrics.counter(
                        "faults.injected", kind="pm_degrade"
                    ).inc()
                factor *= event.factor
        return factor

    def tier_loss(self, site: str) -> FaultEvent | None:
        """Consume a PM tier-capacity-loss event at a stage start."""
        return self._consume("tier_loss", site)

    def take_backend_stall(self, site: str = BACKEND_SITE) -> FaultEvent | None:
        """Consume one stalled backend call at a serving site, if armed."""
        return self._consume("backend_stall", site)

    def take_request_burst(self, site: str = ARRIVAL_SITE) -> FaultEvent | None:
        """Consume one request-burst event at the admission queue.

        A burst fires once; its ``count`` is the number of duplicate
        requests it injects, so the whole event is drained in one take.
        """
        for entry in self._remaining:
            event, remaining = entry
            if (
                event.kind == "request_burst"
                and event.site == site
                and remaining > 0
            ):
                entry[1] = 0
                self.metrics.counter(
                    "faults.injected", kind="request_burst"
                ).inc()
                return event
        return None

    def take_shard_fault(self, site: str, seq: int) -> FaultEvent | None:
        """Consume one armed shard fault at ``site`` due by lookup ``seq``.

        Shard events (including the checkpoint-media kinds) interpret
        ``count`` as the 1-based scatter-gather lookup sequence number
        at which they fire; each event fires exactly once, at the first
        lookup whose sequence reaches it.  Call repeatedly to drain
        multiple events due at the same sequence number.
        """
        for entry in self._remaining:
            event, remaining = entry
            if (
                event.kind in SHARD_SITE_KINDS
                and event.site == site
                and remaining > 0
                and seq >= event.count
            ):
                entry[1] = 0
                self.metrics.counter(
                    "faults.injected", kind=event.kind
                ).inc()
                return event
        return None

    @property
    def pending(self) -> int:
        """Total injections still armed."""
        return sum(remaining for _, remaining in self._remaining)


# ---------------------------------------------------------------------------
# Plans and query sequences
# ---------------------------------------------------------------------------

SHARD_SITES = ("shard.0", "shard.1")
SITES = ("graph_read", "pm", ASL_LOAD_SITE, BACKEND_SITE, ARRIVAL_SITE) + (
    SHARD_SITES
)


@st.composite
def events(draw):
    kind = draw(st.sampled_from(ALL_FAULT_KINDS))
    shard = kind in SHARD_SITE_KINDS
    return FaultEvent(
        kind,
        draw(st.sampled_from(SHARD_SITES if shard else SITES)),
        count=draw(st.integers(1, 10 if shard else 5)),
        factor=draw(st.sampled_from((0.25, 0.5, 0.8, 1.0))),
        phase=draw(st.sampled_from(CRASH_PHASES)),
        seconds=draw(st.sampled_from((0.1, 0.7))),
    )


sites = st.sampled_from(SITES)
queries = st.one_of(
    st.tuples(st.just("_consume"), st.sampled_from(COUNTED_KINDS), sites),
    st.tuples(st.just("should_crash"), sites, st.sampled_from(CRASH_PHASES)),
    st.tuples(st.just("take_transient_failure"), sites),
    st.tuples(st.just("tier_loss"), sites),
    st.tuples(st.just("take_backend_stall"), sites),
    st.tuples(st.just("take_request_burst"), sites),
    st.tuples(
        st.just("take_shard_fault"),
        st.sampled_from(SHARD_SITES),
        st.integers(1, 10),
    ),
    st.tuples(st.just("pm_derate")),
)

#: Each old entry point as a call of the one rule.
AS_TAKE = {
    "_consume": lambda new, kind, site: new.take(kind, site),
    "should_crash": lambda new, site, phase: new.take(
        "crash", site, phase=phase
    ),
    "take_transient_failure": lambda new, site: new.take(
        "transient_load", site
    ),
    "tier_loss": lambda new, site: new.take("tier_loss", site),
    "take_backend_stall": lambda new, site: new.take("backend_stall", site),
    "take_request_burst": lambda new, site: new.take("request_burst", site),
    "take_shard_fault": lambda new, site, seq: new.take(
        SHARD_SITE_KINDS, site, seq=seq
    ),
}


def _fired(old, before):
    """The one event the reference spent since ``before``, or ``None``."""
    spent = [
        event
        for (event, left), was in zip(old._remaining, before)
        if left != was
    ]
    assert len(spent) <= 1
    return spent[0] if spent else None


@settings(max_examples=300, deadline=None)
@given(
    plan=st.lists(events(), max_size=8).map(
        lambda e: FaultPlan(events=tuple(e))
    ),
    steps=st.lists(queries, max_size=30),
)
def test_take_fires_what_the_seven_methods_fired(plan, steps):
    old = FaultInjector(plan, MetricsRegistry())
    new = faults.FaultInjector(plan, MetricsRegistry())
    for name, *args in steps:
        if name == "pm_derate":
            assert new.pm_derate() == old.pm_derate()
        else:
            before = [left for _, left in old._remaining]
            result = getattr(old, name)(*args)
            fired = _fired(old, before)
            assert (fired is not None) == bool(result)
            assert AS_TAKE[name](new, *args) is fired
        assert new.metrics.snapshot() == old.metrics.snapshot()
    assert new.pm_derate() == old.pm_derate()
    assert new.metrics.snapshot() == old.metrics.snapshot()
