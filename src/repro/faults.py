"""Deterministic fault injection for the simulated pipeline.

The paper's App-direct mode (§II-B) exists to survive power loss, and
tiered-storage embedding systems treat device stalls and transient
transfer failures as first-class events.  This module supplies the
injection side of that story: a :class:`FaultPlan` is a declarative,
JSON-serializable list of fault events — crash points at pipeline stage
boundaries, transient streaming-load errors, PM bandwidth degradation
and PM tier-capacity loss — and a :class:`FaultInjector` is the runtime
the instrumented components consult.

Everything is deterministic: a plan is either written out event by
event or generated from a seed (:meth:`FaultPlan.random`), so any
chaos run can be replayed exactly.  Components react as follows:

- ``crash`` — :class:`~repro.memsim.persistence.CheckpointedEmbedder`
  raises :class:`InjectedCrash` at the named stage boundary (after or,
  with ``phase="before_commit"``, during that stage's WAL commit);
- ``transient_load`` — :class:`repro.core.asl.StreamingLoader` retries
  with exponential backoff, charging every retry to the simulated
  clock, and raises :class:`RetryExhaustedError` once the policy's
  budget is spent;
- ``pm_degrade`` — the SpMM engine derates the PM streaming bandwidth
  by the event's factor for the rest of the run;
- ``tier_loss`` — the embedder re-places hot structures per the NaDP
  fallback order (local DRAM → remote DRAM → re-plan ASL with more
  partitions) instead of aborting.

Every injected event is counted in the ``faults.injected`` metric
family, labelled by kind.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # import deferred: obs -> memsim -> persistence -> faults
    from repro.obs.metrics import MetricsRegistry

#: Recognised pipeline fault kinds (the set :meth:`FaultPlan.random`
#: draws from, kept stable so seeded plans replay bit-identically).
FAULT_KINDS = ("crash", "transient_load", "pm_degrade", "tier_loss")
#: Serving-layer fault kinds (:mod:`repro.serve`): a ``backend_stall``
#: freezes one embed/stream backend call for ``seconds`` of simulated
#: time; a ``request_burst`` injects ``count`` duplicate arrivals at the
#: admission queue, stressing the shedding path.
SERVE_FAULT_KINDS = ("backend_stall", "request_burst")
#: Shard-store fault kinds (:mod:`repro.shard`): a ``shard_crash`` hard
#: kills one shard process, a ``shard_hang`` freezes it for ``seconds``
#: of wall time (the process stops heartbeating *and* serving), and a
#: ``heartbeat_loss`` mutes the heartbeat while the shard keeps serving
#: (exercising the supervisor's false-positive restart path).  For these
#: kinds ``site`` names the target shard (``"shard.<i>"``) and ``count``
#: is the 1-based scatter-gather lookup sequence number at which the
#: event fires, so a seeded chaos run kills a shard at a deterministic
#: point mid-serve.
SHARD_FAULT_KINDS = ("shard_crash", "shard_hang", "heartbeat_loss")
#: Checkpoint-media fault kinds (:mod:`repro.shard`): the simulated PM
#: device returns bad data — a ``checkpoint_corrupt`` flips bytes inside
#: a shard's newest durable checkpoint record (its CRC no longer
#: matches), a ``checkpoint_torn`` truncates the record's payload (a
#: torn write).  Recovery must *verify* what it reads: the shard walks
#: back to the newest checkpoint whose CRC holds and quarantines the
#: damaged ones.  Like the shard kinds, ``site`` is ``"shard.<i>"`` and
#: ``count`` is the 1-based lookup sequence number at which the media
#: damage lands.
CHECKPOINT_FAULT_KINDS = ("checkpoint_corrupt", "checkpoint_torn")
#: Every shard-site kind (fires on lookup sequence numbers).
SHARD_SITE_KINDS = SHARD_FAULT_KINDS + CHECKPOINT_FAULT_KINDS
#: Every kind a :class:`FaultEvent` accepts.
ALL_FAULT_KINDS = (
    FAULT_KINDS + SERVE_FAULT_KINDS + SHARD_FAULT_KINDS + CHECKPOINT_FAULT_KINDS
)
#: Crash phases relative to a stage's WAL commit.
CRASH_PHASES = ("after_commit", "before_commit")
#: Default injection site of transient streaming-load failures.
ASL_LOAD_SITE = "asl.load"
#: Default injection site of serving-backend stalls.
BACKEND_SITE = "serve.backend"
#: Default injection site of request bursts.
ARRIVAL_SITE = "serve.arrivals"


class FaultError(RuntimeError):
    """Base class of every injected-fault exception."""


class InjectedCrash(FaultError):
    """Simulated power loss at a pipeline stage boundary."""

    def __init__(self, site: str, phase: str = "after_commit") -> None:
        super().__init__(f"crash injected at {site!r} ({phase})")
        self.site = site
        self.phase = phase


class RetryExhaustedError(FaultError):
    """A transient fault outlived the retry policy's budget."""

    def __init__(self, site: str, attempts: int) -> None:
        super().__init__(
            f"transient faults at {site!r} exhausted {attempts} attempts"
        )
        self.site = site
        self.attempts = attempts


class BackendStallError(FaultError):
    """A serving-backend call stalled past the caller's stall budget."""

    def __init__(self, site: str, seconds: float) -> None:
        super().__init__(
            f"backend call at {site!r} stalled; abandoned after"
            f" {seconds:.3f}s"
        )
        self.site = site
        self.seconds = seconds


@dataclass(frozen=True)
class FaultEvent:
    """One declarative fault.

    Attributes:
        kind: one of :data:`ALL_FAULT_KINDS`.
        site: where the event fires — a pipeline stage name for
            ``crash``/``tier_loss``, :data:`ASL_LOAD_SITE` for
            ``transient_load``, ``"pm"`` for ``pm_degrade``,
            :data:`BACKEND_SITE` for ``backend_stall``,
            :data:`ARRIVAL_SITE` for ``request_burst``.
        count: how many failures a ``transient_load``/``backend_stall``
            event injects (consecutive attempts that fail), how many
            duplicate arrivals a ``request_burst`` adds, or — for the
            shard kinds — the 1-based lookup sequence number at which
            the fault fires.
        factor: bandwidth multiplier of a ``pm_degrade`` event
            (0 < factor <= 1; 0.5 halves the PM streaming bandwidth).
        phase: when a ``crash`` fires relative to the stage's WAL
            commit (:data:`CRASH_PHASES`).
        seconds: simulated duration of a ``backend_stall`` (how long a
            stalled call hangs before the caller's stall budget cuts it
            off); unused by the other kinds.
    """

    kind: str
    site: str
    count: int = 1
    factor: float = 1.0
    phase: str = "after_commit"
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {ALL_FAULT_KINDS}, got {self.kind!r}"
            )
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not 0.0 < self.factor <= 1.0:
            raise ValueError(f"factor must be in (0, 1], got {self.factor}")
        if self.phase not in CRASH_PHASES:
            raise ValueError(
                f"phase must be one of {CRASH_PHASES}, got {self.phase!r}"
            )
        if self.seconds < 0.0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")
        if self.kind == "backend_stall" and self.seconds == 0.0:
            raise ValueError("backend_stall events need seconds > 0")
        if self.kind == "shard_hang" and self.seconds == 0.0:
            raise ValueError("shard_hang events need seconds > 0")
        if self.kind in SHARD_SITE_KINDS and not self.site.startswith(
            "shard."
        ):
            raise ValueError(
                f"{self.kind} events target a 'shard.<i>' site,"
                f" got {self.site!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form."""
        payload = {
            "kind": self.kind,
            "site": self.site,
            "count": self.count,
            "factor": self.factor,
            "phase": self.phase,
        }
        if self.seconds:
            payload["seconds"] = self.seconds
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultEvent":
        """Rebuild an event from :meth:`to_dict` output.

        Raises:
            ValueError: naming the field that is missing or mistyped
                (``kind``/``site``/``phase`` must be strings, ``count``
                an integer, ``factor``/``seconds`` finite numbers).
        """
        if not isinstance(payload, dict):
            raise ValueError(f"an event must be an object, got {payload!r}")
        fields = {
            "count": 1, "factor": 1.0, "phase": "after_commit", "seconds": 0.0
        } | payload
        for name in ("kind", "site", "phase"):
            if not isinstance(fields.get(name), str):
                raise ValueError(
                    f"event field {name!r} must be a string,"
                    f" got {fields.get(name)!r}"
                )
        for name in ("count", "factor", "seconds"):
            value = fields[name]
            finite = isinstance(value, int) or (
                isinstance(value, float) and math.isfinite(value)
            )
            if (
                isinstance(value, bool)
                or not finite
                or (name == "count" and value != int(value))
            ):
                want = "an integer" if name == "count" else "a finite number"
                raise ValueError(
                    f"event field {name!r} must be {want}, got {value!r}"
                )
        return cls(
            kind=fields["kind"],
            site=fields["site"],
            count=int(fields["count"]),
            factor=float(fields["factor"]),
            phase=fields["phase"],
            seconds=float(fields["seconds"]),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, replayable set of fault events.

    Plans compare equal when their events match, so a seeded plan can be
    asserted deterministic; ``seed`` records provenance only.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    @classmethod
    def random(
        cls,
        seed: int,
        stages: Iterable[str] = ("graph_read", "factorization", "propagation"),
        n_events: int = 3,
        max_transient: int = 2,
    ) -> "FaultPlan":
        """Seeded plan generator for chaos sweeps.

        Draws ``n_events`` events uniformly over the four kinds; crash
        and tier-loss sites come from ``stages``, transient counts from
        ``[1, max_transient]``, degradation factors from [0.25, 0.95].
        The same seed always yields the same plan.
        """
        import numpy as np

        stages = tuple(stages)
        rng = np.random.default_rng(seed)
        events = []
        for _ in range(n_events):
            kind = FAULT_KINDS[int(rng.integers(len(FAULT_KINDS)))]
            if kind == "crash":
                events.append(
                    FaultEvent(
                        kind,
                        stages[int(rng.integers(len(stages)))],
                        phase=CRASH_PHASES[int(rng.integers(2))],
                    )
                )
            elif kind == "transient_load":
                events.append(
                    FaultEvent(
                        kind,
                        ASL_LOAD_SITE,
                        count=int(rng.integers(1, max_transient + 1)),
                    )
                )
            elif kind == "pm_degrade":
                events.append(
                    FaultEvent(
                        kind, "pm", factor=float(rng.uniform(0.25, 0.95))
                    )
                )
            else:
                events.append(
                    FaultEvent(kind, stages[int(rng.integers(len(stages)))])
                )
        return cls(events=tuple(events), seed=seed)

    @classmethod
    def random_serve(
        cls,
        seed: int,
        n_events: int = 4,
        max_stall_calls: int = 8,
        stall_seconds: tuple[float, float] = (0.05, 0.5),
        max_burst: int = 12,
    ) -> "FaultPlan":
        """Seeded serving-chaos plan: stalls, bursts and PM derating.

        Draws ``n_events`` events over ``backend_stall`` /
        ``request_burst`` / ``pm_degrade`` (stall-biased, since stalls
        are what trip the circuit breaker).  The same seed always yields
        the same plan, so a ``serve-sim`` chaos run replays exactly.
        """
        import numpy as np

        rng = np.random.default_rng(seed)
        kinds = ("backend_stall", "backend_stall", "request_burst", "pm_degrade")
        events = []
        for _ in range(n_events):
            kind = kinds[int(rng.integers(len(kinds)))]
            if kind == "backend_stall":
                events.append(
                    FaultEvent(
                        kind,
                        BACKEND_SITE,
                        count=int(rng.integers(1, max_stall_calls + 1)),
                        seconds=float(rng.uniform(*stall_seconds)),
                    )
                )
            elif kind == "request_burst":
                events.append(
                    FaultEvent(
                        kind,
                        ARRIVAL_SITE,
                        count=int(rng.integers(2, max_burst + 1)),
                    )
                )
            else:
                events.append(
                    FaultEvent(
                        kind, "pm", factor=float(rng.uniform(0.25, 0.95))
                    )
                )
        return cls(events=tuple(events), seed=seed)

    @classmethod
    def random_shard(
        cls,
        seed: int,
        n_shards: int = 4,
        n_events: int = 2,
        max_lookup: int = 40,
        hang_seconds: tuple[float, float] = (0.5, 2.0),
    ) -> "FaultPlan":
        """Seeded shard-chaos plan: crashes, hangs and heartbeat loss.

        Draws ``n_events`` events over the shard kinds (crash-biased —
        a dead shard is the recovery path worth exercising most), each
        targeting a uniform shard and firing at a uniform lookup
        sequence number in ``[1, max_lookup]``.  The same seed always
        yields the same plan, so a shard-kill chaos run replays exactly.
        """
        import numpy as np

        rng = np.random.default_rng(seed)
        kinds = ("shard_crash", "shard_crash", "shard_hang", "heartbeat_loss")
        events = []
        for _ in range(n_events):
            kind = kinds[int(rng.integers(len(kinds)))]
            site = f"shard.{int(rng.integers(n_shards))}"
            at = int(rng.integers(1, max_lookup + 1))
            if kind == "shard_hang":
                events.append(
                    FaultEvent(
                        kind,
                        site,
                        count=at,
                        seconds=float(rng.uniform(*hang_seconds)),
                    )
                )
            else:
                events.append(FaultEvent(kind, site, count=at))
        return cls(events=tuple(events), seed=seed)

    @classmethod
    def random_resilience(
        cls,
        seed: int,
        scenario: str,
        n_shards: int = 4,
        max_lookup: int = 30,
    ) -> "FaultPlan":
        """Seeded online-resilience plan for one chaos-matrix scenario.

        Scenarios (the CI chaos-matrix axes):

        - ``"promotion"`` — primary kills only (``shard_crash``), so a
          replica-backed fleet must fail over by promotion;
        - ``"reshard"`` — a kill plus a hang, landing while the
          supervisor is splitting/merging ranges under load imbalance;
        - ``"corruption"`` — checkpoint media damage
          (``checkpoint_corrupt`` / ``checkpoint_torn``) followed by a
          kill of the same shard, forcing verified walk-back recovery.

        The same ``(seed, scenario)`` always yields the same plan.
        """
        import numpy as np

        scenarios = ("promotion", "reshard", "corruption")
        if scenario not in scenarios:
            raise ValueError(
                f"scenario must be one of {scenarios}, got {scenario!r}"
            )
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        if scenario == "promotion":
            for _ in range(2):
                site = f"shard.{int(rng.integers(n_shards))}"
                at = int(rng.integers(2, max_lookup + 1))
                events.append(FaultEvent("shard_crash", site, count=at))
        elif scenario == "reshard":
            site = f"shard.{int(rng.integers(n_shards))}"
            events.append(
                FaultEvent(
                    "shard_crash",
                    site,
                    count=int(rng.integers(2, max_lookup + 1)),
                )
            )
            events.append(
                FaultEvent(
                    "shard_hang",
                    f"shard.{int(rng.integers(n_shards))}",
                    count=int(rng.integers(2, max_lookup + 1)),
                    seconds=float(rng.uniform(0.5, 1.5)),
                )
            )
        else:  # corruption
            shard = int(rng.integers(n_shards))
            damage = CHECKPOINT_FAULT_KINDS[int(rng.integers(2))]
            at = int(rng.integers(2, max(3, max_lookup // 2)))
            events.append(FaultEvent(damage, f"shard.{shard}", count=at))
            events.append(
                FaultEvent(
                    "shard_crash",
                    f"shard.{shard}",
                    count=int(rng.integers(at + 1, max_lookup + 2)),
                )
            )
        return cls(events=tuple(events), seed=seed)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form."""
        return {
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        if not isinstance(payload, dict):
            raise ValueError(f"a plan must be an object, got {payload!r}")
        events = payload.get("events", [])
        if not isinstance(events, list):
            raise ValueError(
                f"plan field 'events' must be a list, got {events!r}"
            )
        return cls(
            events=tuple(FaultEvent.from_dict(e) for e in events),
            seed=payload.get("seed"),
        )

    def save(self, path: str | Path) -> Path:
        """Write the plan as JSON (the CLI's ``--faults`` format)."""
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        """Read a plan written by :meth:`save`.

        Raises:
            ValueError: the file is not a valid plan; the message names
                the file and the offending field.
        """
        try:
            return cls.from_dict(
                json.loads(Path(path).read_text(encoding="utf-8"))
            )
        except ValueError as err:
            raise ValueError(f"fault plan {str(path)!r}: {err}") from None


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
