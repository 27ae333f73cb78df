"""Deterministic fault injection for the simulated pipeline.

The paper's App-direct mode (§II-B) exists to survive power loss, and
tiered-storage embedding systems treat device stalls and transient
transfer failures as first-class events.  This module supplies the
injection side of that story: a :class:`FaultPlan` is a declarative,
JSON-serializable list of fault events — crash points at pipeline stage
boundaries, transient streaming-load errors, PM bandwidth degradation
and PM tier-capacity loss — and a :class:`FaultInjector` is the runtime
the instrumented components consult.

Everything is deterministic: a plan is written out event by event or
drawn from a seed (the ``FaultPlan.random_*`` generators), so any chaos
run can be replayed exactly.  Every event fires a fixed number of
times — ``count`` times for the kinds in :data:`COUNTED_KINDS`, once
for every other kind — and :meth:`FaultInjector.take` is the one rule
that fires them.  Components react as follows:

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

Every firing is counted in the ``faults.injected`` metric family,
labelled by kind.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # import deferred: obs -> memsim -> persistence -> faults
    from repro.obs.metrics import MetricsRegistry

#: Pipeline fault kinds (consulted by the embedder and the SpMM engine).
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
#: Kinds whose ``count`` is a number of firings; every other kind fires
#: once (its ``count`` is a burst size or a lookup sequence number).
COUNTED_KINDS = ("crash", "transient_load", "tier_loss", "backend_stall")
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
        count: for :data:`COUNTED_KINDS`, how many times the event
            fires (a ``transient_load``/``backend_stall`` fails that many
            consecutive attempts).  Every other kind fires once: a
            ``request_burst``'s count is the number of duplicate
            arrivals it adds, and a shard kind's count is the 1-based
            lookup sequence number at which it fires.
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

    Every event is armed with a fixed number of firings
    (:data:`COUNTED_KINDS` fire ``count`` times, every other kind once)
    and :meth:`take` is the one rule that spends them: a resumed run
    never replays the crash that interrupted it.  Every firing adds one
    to ``faults.injected`` (labelled by kind) on the supplied registry.
    """

    def __init__(
        self, plan: FaultPlan, metrics: "MetricsRegistry | None" = None
    ) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.plan = plan
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._armed: list[list] = [
            [event, event.count if event.kind in COUNTED_KINDS else 1]
            for event in plan.events
        ]

    def take(
        self,
        kinds: str | tuple[str, ...],
        site: str,
        phase: str | None = None,
        seq: int | None = None,
    ) -> FaultEvent | None:
        """Fire the first armed event of ``kinds`` at ``site``, if any.

        ``phase`` (crashes) must equal the event's phase, and ``seq``
        (the shard kinds) must have reached the event's ``count``; a
        ``None`` leaves that field unchecked.
        """
        kinds = (kinds,) if isinstance(kinds, str) else kinds
        for entry in self._armed:
            event, left = entry
            if (
                left
                and event.kind in kinds
                and event.site == site
                and phase in (None, event.phase)
                and (seq is None or seq >= event.count)
            ):
                entry[1] = left - 1
                self.metrics.counter("faults.injected", kind=event.kind).inc()
                return event
        return None

    def pm_derate(self) -> float:
        """Product of every ``pm_degrade`` factor in the plan (1.0 = healthy).

        Degradation is sticky — a slow DIMM does not recover — so every
        call applies every factor, while :meth:`take` fires each event on
        the first call only.
        """
        factor = 1.0
        for event in self.plan.events:
            if event.kind == "pm_degrade":
                self.take("pm_degrade", event.site)
                factor *= event.factor
        return factor

    @property
    def pending(self) -> int:
        """Firings still armed."""
        return sum(left for _, left in self._armed)
