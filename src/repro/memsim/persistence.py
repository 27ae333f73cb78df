"""App-direct PM persistence: flush/fence costs and crash-safe commits.

§II-B: in App-directed mode applications access PM with loads/stores
"while employing ordering facilities to enforce consistency and ensure
crash recovery".  This module supplies those facilities for the
simulation substrate:

- :class:`PersistenceDomain` — charges ``CLWB``-style cache-line
  write-backs and ``SFENCE`` ordering points, and tracks which bytes are
  durable vs merely stored;
- :class:`StageCheckpointStore` — a WAL-style append-only log of
  per-stage pipeline checkpoints (graph read, factorization,
  propagation), each committed crash-consistently: store the payload →
  flush → fence → flip a flushed commit record;
- :class:`CheckpointedEmbedder` — runs the pipeline stage by stage,
  checkpointing after every stage, honouring injected crash points
  (:mod:`repro.faults`) and resuming from the last durable stage with a
  bit-identical final embedding; the ``propagation`` record commits it.

Crashes are *injected* (``crash=True`` or a
:class:`~repro.faults.FaultInjector`), so tests can verify recovery
semantics exactly.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.faults import FaultInjector, InjectedCrash
from repro.memsim.costmodel import CostModel
from repro.memsim.devices import (
    AccessPattern,
    DeviceSpec,
    Locality,
    Operation,
    pm_spec,
)

#: Cache-line granularity of CLWB write-backs.
CACHE_LINE_BYTES = 64
#: Cost of one SFENCE ordering point, seconds (~tens of ns).
FENCE_SECONDS = 30e-9
#: The pipeline stage whose WAL record commits the finished embedding.
COMMIT_STAGE = "propagation"


@dataclass
class PersistenceDomain:
    """Durability accounting for one PM device.

    Stores are fast (cache-resident) until flushed; ``flush`` charges the
    PM write path per cache line, ``fence`` orders them.  ``sim_seconds``
    accumulates the persistence overhead the paper's App-direct mode
    pays and Memory Mode does not expose to the application.
    """

    device: DeviceSpec
    cost_model: CostModel = field(default_factory=CostModel)
    sim_seconds: float = 0.0
    stored_bytes: float = 0.0
    durable_bytes: float = 0.0
    fences: int = 0

    def store(self, nbytes: float) -> None:
        """Buffer ``nbytes`` of stores (not yet durable)."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self.stored_bytes += nbytes

    def flush(self) -> float:
        """CLWB all pending stores to the PM media; returns the cost."""
        pending = self.stored_bytes
        if pending == 0.0:
            return 0.0
        lines = -(-pending // CACHE_LINE_BYTES)
        seconds = self.cost_model.access_time(
            self.device,
            Operation.WRITE,
            AccessPattern.SEQUENTIAL,
            Locality.LOCAL,
            lines * CACHE_LINE_BYTES,
        )
        self.sim_seconds += seconds
        self.durable_bytes += pending
        self.stored_bytes = 0.0
        return seconds

    def fence(self) -> float:
        """SFENCE: order preceding flushes; returns the cost."""
        self.fences += 1
        self.sim_seconds += FENCE_SECONDS
        return FENCE_SECONDS

    @property
    def all_durable(self) -> bool:
        """True when no stores are pending."""
        return self.stored_bytes == 0.0


class CrashInjected(InjectedCrash):
    """Raised when a commit is aborted by an injected crash."""

    def __init__(self, message: str, site: str = "commit") -> None:
        RuntimeError.__init__(self, message)
        self.site = site
        self.phase = "before_commit"


def record_checksum(arrays: dict[str, np.ndarray], meta: dict) -> int:
    """CRC32 of a checkpoint record's payload (arrays + meta).

    Covers each array's name, shape, dtype, and raw bytes plus the
    canonical-JSON meta, so any bit flip, truncation, or reshape of the
    stored payload fails verification.
    """
    crc = 0
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        header = f"{name}:{array.dtype.str}:{array.shape}".encode()
        crc = zlib.crc32(header, crc)
        crc = zlib.crc32(array.tobytes(), crc)
    crc = zlib.crc32(json.dumps(meta, sort_keys=True).encode(), crc)
    return crc


@dataclass
class StageRecord:
    """One durable WAL entry: a completed pipeline stage's checkpoint.

    ``crc`` is the checksum computed at commit time; it is *not*
    recomputed when the media is damaged, so
    :meth:`StageCheckpointStore.verify` detects corrupt or torn records.
    """

    stage: str
    arrays: dict[str, np.ndarray]
    meta: dict
    sequence: int
    crc: int = 0


class StageCheckpointStore:
    """WAL-style append-only stage-checkpoint log on a PM domain.

    Each append follows the App-direct discipline: store the record's
    payload, flush, fence, then flip a flushed commit record.  A crash
    injected before the flip (``crash=True``) loses only that record —
    every earlier stage stays durable, which is exactly what
    :meth:`CheckpointedEmbedder.resume` recovers.

    Every record carries a CRC32 over its payload
    (:func:`record_checksum`); readers that must not trust the media
    (:class:`repro.shard.ShardHost` recovery) ask for
    :meth:`last_verified`, which walks back past damaged records.
    """

    def __init__(self, domain: PersistenceDomain) -> None:
        self.domain = domain
        self._records: list[StageRecord] = []
        self._sequence = 0

    def append(
        self,
        stage: str,
        arrays: dict[str, np.ndarray],
        meta: dict,
        crash: bool = False,
    ) -> int:
        """Durably append one stage checkpoint; returns its sequence.

        Raises:
            CrashInjected: when ``crash`` is set — the record is lost,
                the log up to the previous stage survives.
        """
        payload_bytes = 0.0
        stored = {}
        for name, array in arrays.items():
            array = np.array(array, copy=True)
            stored[name] = array
            payload_bytes += float(array.nbytes)
        payload_bytes += float(len(json.dumps(meta, sort_keys=True)))
        self.domain.store(payload_bytes)
        self.domain.flush()
        self.domain.fence()
        if crash:
            raise CrashInjected(
                f"crash injected during the {stage!r} checkpoint commit",
                site=stage,
            )
        self.domain.store(8.0)
        self.domain.flush()
        self.domain.fence()
        self._sequence += 1
        stored_meta = json.loads(json.dumps(meta))
        self._records.append(
            StageRecord(
                stage=stage,
                arrays=stored,
                meta=stored_meta,
                sequence=self._sequence,
                crc=record_checksum(stored, stored_meta),
            )
        )
        return self._sequence

    def last(self) -> StageRecord | None:
        """The most recent durable record (what a restart recovers)."""
        return self._records[-1] if self._records else None

    @property
    def records(self) -> list[StageRecord]:
        """Every durable record, commit order (newest last)."""
        return list(self._records)

    @staticmethod
    def verify(record: StageRecord) -> bool:
        """Whether a record's payload still matches its commit-time CRC."""
        return record_checksum(record.arrays, record.meta) == record.crc

    def quarantine(self, record: StageRecord) -> None:
        """Drop a damaged record from the log (it never serves again)."""
        self._records = [r for r in self._records if r is not record]

    def drop_unreachable(self) -> None:
        """Drop every record older than the newest earlier one that verifies.

        Call after an append.  Damage lands only on the newest record
        (:meth:`damage_last`) and a walk-back stops at the first record
        that verifies, so the kept record is a floor :meth:`last_verified`
        never passes — unless every record above it is quarantined and
        a later fault then damages the floor itself before the next
        append (DESIGN §6e).  Undamaged, two records remain.
        """
        for index in range(len(self._records) - 2, -1, -1):
            if self.verify(self._records[index]):
                del self._records[:index]
                return

    def last_verified(
        self, on_quarantine: Callable[[StageRecord], None] | None = None
    ) -> StageRecord | None:
        """Newest record whose CRC verifies, quarantining those that fail.

        Records are walked newest-to-oldest, each verified against its
        commit-time checksum; a damaged one is dropped from the log and
        reported through ``on_quarantine`` instead of being served.
        ``None`` when no record verifies (or the log is empty).
        """
        for record in reversed(self._records):
            if self.verify(record):
                return record
            self.quarantine(record)
            if on_quarantine is not None:
                on_quarantine(record)
        return None

    def damage_last(self, mode: str = "corrupt") -> StageRecord | None:
        """Simulate media damage on the newest record (fault injection).

        ``"corrupt"`` flips bytes inside the largest stored array;
        ``"torn"`` truncates it (a torn write).  The record's CRC is
        left at its commit-time value, so :meth:`verify` fails.  Returns
        the damaged record, or ``None`` when the log is empty or the
        newest record has no array payload to damage.
        """
        if mode not in ("corrupt", "torn"):
            raise ValueError(f"mode must be 'corrupt' or 'torn', got {mode!r}")
        if not self._records:
            return None
        record = self._records[-1]
        if not record.arrays:
            return None
        name = max(record.arrays, key=lambda n: record.arrays[n].nbytes)
        array = record.arrays[name]
        if mode == "corrupt":
            damaged = np.array(array, copy=True)
            flat = damaged.view(np.uint8).reshape(-1)
            flat[: max(1, len(flat) // 64)] ^= 0xFF
            record.arrays[name] = damaged
        else:
            flat = np.ascontiguousarray(array).reshape(-1)
            record.arrays[name] = np.array(
                flat[: max(0, len(flat) - max(1, len(flat) // 2))],
                copy=True,
            )
        return record

    @property
    def stages(self) -> list[str]:
        """Names of every durable stage, in commit order."""
        return [record.stage for record in self._records]

    def clear(self) -> StageRecord | None:
        """Truncate the log to its newest commit record; returns it."""
        kept = [r for r in self._records if r.stage == COMMIT_STAGE][-1:]
        self._records = kept
        return kept[0] if kept else None


class CheckpointedEmbedder:
    """Embedding pipeline wrapper with crash-safe PM checkpoints.

    Wraps an :class:`repro.core.embedding.OMeGaEmbedder`:
    :meth:`embed_with_checkpoints` / :meth:`resume` cut stage-granular
    WAL checkpoints (after graph read, factorization and propagation);
    the ``propagation`` record, which holds the finished embedding and
    nothing else, is its commit.  An injected crash loses at most one
    stage; ``resume()`` recovers the last durable stage, skips the
    completed work, and produces an embedding bit-identical to an
    uninterrupted run.  Recovered simulated seconds are reported via
    the ``checkpoint.*`` metrics.
    """

    def __init__(self, embedder) -> None:
        self.embedder = embedder
        self.domain = PersistenceDomain(device=pm_spec())
        self.wal = StageCheckpointStore(self.domain)
        self._pending_graph: tuple[np.ndarray, int] | None = None
        # The previous run's commit, kept by clear(): never resumed from.
        self._retained: StageRecord | None = None

    def recover_embedding(self) -> np.ndarray | None:
        """A copy of the newest ``propagation`` record's embedding, or None."""
        for record in reversed(self.wal.records):
            if record.stage == COMMIT_STAGE:
                return np.array(record.arrays["embedding"], copy=True)
        return None

    def embed_with_checkpoints(
        self,
        edges: np.ndarray,
        n_nodes: int,
        faults: FaultInjector | None = None,
    ):
        """Run stage by stage, WAL-checkpointing after every stage.

        An injected crash (``faults``) aborts the run mid-pipeline and
        propagates :class:`~repro.faults.InjectedCrash`; call
        :meth:`resume` to recover.  Returns the
        :class:`~repro.core.embedding.EmbeddingResult`.
        """
        self._retained = self.wal.clear()
        self._pending_graph = (np.asarray(edges), n_nodes)
        from repro.formats.convert import edges_to_csdb

        adjacency = edges_to_csdb(edges, n_nodes)
        run = self.embedder.start_run(adjacency, n_edges=len(edges))
        return self._drive(run, faults)

    def resume(self, faults: FaultInjector | None = None):
        """Recover the last durable stage and finish the pipeline.

        Completed stages are skipped — their numeric outputs and cost
        accounting come from the WAL — so the final embedding is
        bit-identical to an uninterrupted run.  Metrics:
        ``checkpoint.resumed_runs``, ``checkpoint.recovered_stages``
        and ``checkpoint.recovered_sim_seconds``.
        """
        if self._pending_graph is None:
            raise RuntimeError(
                "nothing to resume; run embed_with_checkpoints first"
            )
        from repro.core.embedding import PipelineState
        from repro.formats.convert import edges_to_csdb

        edges, n_nodes = self._pending_graph
        adjacency = edges_to_csdb(edges, n_nodes)
        record = self.wal.last()
        # Copied: a resumed result must not alias the durable commit.
        state = (
            PipelineState.from_payload(
                {name: a.copy() for name, a in record.arrays.items()},
                record.meta,
            )
            if record is not None and record is not self._retained
            else None
        )
        run = self.embedder.start_run(
            adjacency, n_edges=len(edges), state=state
        )
        metrics = self.embedder.metrics
        metrics.counter("checkpoint.resumed_runs").inc()
        if state is not None:
            metrics.counter("checkpoint.recovered_stages").inc(
                len(state.completed_stages)
            )
            metrics.counter("checkpoint.recovered_sim_seconds").inc(
                state.sim_seconds
            )
        return self._drive(run, faults)

    def run_to_completion(
        self,
        edges: np.ndarray,
        n_nodes: int,
        faults: FaultInjector | None = None,
        resume: bool = True,
        on_crash: Callable[[InjectedCrash, bool], None] | None = None,
    ):
        """:meth:`embed_with_checkpoints`, then :meth:`resume` per crash.

        Every :class:`~repro.faults.InjectedCrash` is reported as
        ``on_crash(crash, resume)``; with ``resume=False`` the first one
        is then re-raised (the WAL keeps the durable stages).  Returns
        the :class:`~repro.core.embedding.EmbeddingResult`.
        """
        attempt = partial(self.embed_with_checkpoints, edges, n_nodes)
        while True:
            try:
                return attempt(faults=faults)
            except InjectedCrash as crash:
                if on_crash is not None:
                    on_crash(crash, resume)
                if not resume:
                    raise
                attempt = self.resume

    def _drive(self, run, faults: FaultInjector | None):
        """Advance a run to completion, checkpointing at each boundary.

        The persistence overhead accrued here (WAL appends, crashed or
        not) is exported as the ``checkpoint.sim_seconds`` counter — the
        numerator of the ``checkpoint_overhead_fraction`` SLO.
        """
        before = self.domain.sim_seconds
        try:
            while run.next_stage is not None:
                try:
                    stage = run.run_next()
                except BaseException:
                    run.abort()
                    raise
                crash_during = faults is not None and faults.should_crash(
                    stage, phase="before_commit"
                )
                arrays, meta = run.state.to_payload()
                try:
                    self.wal.append(stage, arrays, meta, crash=crash_during)
                except CrashInjected:
                    run.abort()
                    raise
                if faults is not None and faults.should_crash(stage):
                    run.abort()
                    raise InjectedCrash(stage)
            result = run.finish()
        finally:
            self.embedder.metrics.counter("checkpoint.sim_seconds").inc(
                self.domain.sim_seconds - before
            )
        return result

    @property
    def checkpoint_sim_seconds(self) -> float:
        """Total persistence overhead charged to the PM domain."""
        return self.domain.sim_seconds
