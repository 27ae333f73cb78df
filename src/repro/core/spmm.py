"""The instrumented parallel SpMM engine — Algorithm 1 with cost tracking.

``SpMMEngine.multiply`` executes a real numpy SpMM (so results are exact
and testable) while simultaneously *simulating* its execution time on the
configured memory system.  Every experiment knob of the paper is a
configuration switch:

- thread allocation: RR / WaTA / EaTA (§III-B);
- prefetching: WoFP on/off with its η/σ parameters (§III-C);
- NUMA placement: NaDP / Interleave / Local (§III-D);
- streaming: ASL on/off (§III-E);
- memory mode: heterogeneous / DRAM-only / PM-only.

Per-thread simulated time follows Eq. 2 of the paper, charging the five
steps of Algorithm 1 separately (the categories of Fig. 7a):

1. ``read_index``      — per-row CSDB metadata, sequential on the sparse tier;
2. ``get_sparse_nnz``  — edge stream, sequential on the sparse tier;
3. ``get_dense_nnz``   — dense-row gathers at the Eq. 5
   entropy-interpolated bandwidth; WoFP hits are served from DRAM;
4. ``accumulate``      — CPU multiply-accumulate (memory-bound on PM-only,
   where even the scratch accumulators live in PM);
5. ``write_result``    — sequential result writes, locality per placement.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.asl import (
    DEFAULT_RETRY_POLICY,
    LoadOutcome,
    RetryPolicy,
    StreamingLoader,
    StreamPlan,
    record_stream_metrics,
)
from repro.core.config import ExecBackend, MemoryMode, OMeGaConfig
from repro.core.eata import (
    ThreadAllocator,
    WorkloadPartition,
    make_allocator,
    record_allocation_metrics,
)
from repro.core.nadp import AccessPlan, DataPlacement, make_placement
from repro.core.wofp import (
    DisabledPrefetchPlan,
    PrefetchPlan,
    WorkloadPrefetcher,
    record_prefetch_metrics,
)
from repro.faults import FaultInjector
from repro.formats.csdb import CSDBMatrix
from repro.memsim.costmodel import CostModel
from repro.memsim.devices import (
    AccessPattern,
    DeviceSpec,
    Locality,
    MemoryKind,
    Operation,
)
from repro.memsim.numa import CapacityError
from repro.memsim.trace import CostTrace
from repro.obs.metrics import Counter, MetricsRegistry, MetricUpdate
from repro.obs.tracer import NULL_TRACER, NullTracer, SpanTracer
from repro.parallel.scheduler import KernelExecutor, SimulatedExecutor
from repro.parallel.shared import get_shared_executor
from repro.parallel.stats import ThreadStats, summarize_thread_times
from repro.parallel.threads import get_threads_executor

#: Bytes of CSDB per-row metadata touched by ``read_index`` (degree-block
#: lookup + running offset).
INDEX_BYTES_PER_ROW = 16.0
#: Bytes of one dense-operand or result item in Eq. 2.  The model prices
#: the paper's float64 operands whatever dtype the host kernel runs in:
#: ProNE's float32 propagation half moves half these bytes on the host and
#: is charged the same simulated seconds as a float64 run.
MODELLED_ITEM_BYTES = 8
#: Bytes per non-zero streamed by ``get_sparse_nnz``: a 4 B column id and
#: a float64 weight, priced like the dense items whatever the host dtypes.
SPARSE_BYTES_PER_NNZ = 12.0
#: Scratch read+write traffic per multiply-accumulate when the scratch
#: accumulators themselves live on PM (PM-only mode).  Each MAC pays a
#: read-modify-write whose 8 B store is amplified to Optane's 256 B
#: XPLine granularity; 48 B/MAC reflects partial write-combining.
SCRATCH_BYTES_PER_MAC = 96.0
#: Fraction of the WoFP population cost exposed on the critical path; the
#: paper populates the top-M map in a back-end thread, overlapping most
#: of the transfer with compute.
PREFETCH_EXPOSED_FRACTION = 0.2

#: One partition's Eq. 2 result: its simulated seconds and the
#: ``(category, seconds, bytes)`` ledger charges that add up to them.
PartitionCost = tuple[float, tuple[tuple[str, float, float], ...]]


@dataclass
class _Replay:
    """What every multiply of one pattern at one ``d`` repeats verbatim.

    Attributes:
        ledger: the allocation, Eq. 2 and merge charges, in charging
            order — everything but the stream terms.
        thread_times: per-thread seconds on arrival at the barrier.
        makespan: the slowest thread's time plus the merge tail.
        overlap: compute seconds the stream load overlaps.
        stream_plan: ASL's plan (None outside heterogeneous mode).
        outcome: the stream load without faults.
        updates: the allocation and prefetch metric updates, in order,
            bound into the engine's registry when the replay is built.
        stream_updates: ``outcome``'s ASL metric updates, bound on the
            first unfaulted call.
    """

    ledger: CostTrace
    thread_times: np.ndarray
    makespan: float
    overlap: float
    stream_plan: StreamPlan | None
    outcome: LoadOutcome | None
    updates: list[MetricUpdate]
    stream_updates: list[MetricUpdate] | None = None


@dataclass
class _Plan:
    """What an engine derives from a sparsity pattern alone.

    ``dispatched`` are the partitions whose row ranges (``ranges``) go to
    the kernel executor, and ``weights`` what the one measured kernel
    wall is apportioned to them by; ``full_pass`` says that some rows sit
    in non-contiguous (natural-order) partitions, a costing construct,
    and the result is computed in one pass instead.
    """

    partitions: list[WorkloadPartition]
    prefetch_plans: list[PrefetchPlan | DisabledPrefetchPlan]
    dispatched: list[WorkloadPartition]
    full_pass: bool
    ranges: list[tuple[int, int]]
    weights: list[int]
    replays: dict[int, _Replay] = field(default_factory=dict)


@dataclass
class SpMMResult:
    """Outcome of one engine SpMM call.

    Attributes:
        output: the real numeric result ``A @ B`` (original row order),
            or None when ``compute=False``.
        sim_seconds: simulated end-to-end time of the operation.
        thread_times: per-thread simulated completion times (parallel
            phase only; serial overheads excluded).
        partitions: the thread allocation used.
        prefetch_plans: per-partition WoFP plans.
        stream_plan: the ASL plan (None outside heterogeneous mode).
        trace: per-category simulated cost ledger.
        kernel_wall_seconds: measured wall-clock seconds spent in the
            real kernel dispatch (0.0 when ``compute=False``); lives
            beside — never inside — the simulated time.
    """

    output: np.ndarray | None
    sim_seconds: float
    thread_times: np.ndarray
    partitions: list[WorkloadPartition]
    prefetch_plans: list[PrefetchPlan | DisabledPrefetchPlan]
    stream_plan: StreamPlan | None
    trace: CostTrace
    nnz: int
    kernel_wall_seconds: float = field(default=0.0)

    @property
    def thread_stats(self) -> ThreadStats:
        """Tail-latency summary of the parallel phase (Fig. 13)."""
        return summarize_thread_times(self.thread_times)

    @property
    def throughput_nnz_per_s(self) -> float:
        """Fig. 16's metric: non-zeros fetched per simulated second."""
        if self.sim_seconds == 0.0:
            return 0.0
        return self.nnz / self.sim_seconds

    @property
    def mean_hit_fraction(self) -> float:
        """Workload-weighted WoFP hit rate across partitions."""
        total = sum(p.nnz_count for p in self.partitions)
        if total == 0:
            return 0.0
        hits = sum(
            plan.hit_fraction * part.nnz_count
            for plan, part in zip(self.prefetch_plans, self.partitions)
        )
        return hits / total


class SpMMEngine:
    """Parallel SpMM on simulated heterogeneous memory."""

    def __init__(
        self,
        config: OMeGaConfig | None = None,
        cost_model: CostModel | None = None,
        tracer: SpanTracer | None = None,
        metrics: MetricsRegistry | None = None,
        faults: FaultInjector | None = None,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> None:
        self.config = config or OMeGaConfig()
        self.topology = self.config.topology
        self.cost_model = cost_model or CostModel()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.faults = faults
        self.retry_policy = retry_policy
        # The sparse matrix, the dense operand and the result live on one
        # tier: DRAM in DRAM-only mode, PM otherwise.
        self._dense_device = self.topology.device(
            MemoryKind.DRAM
            if self.config.memory_mode is MemoryMode.DRAM_ONLY
            else MemoryKind.PM
        )
        beta = self.cost_model.beta(self._dense_device, Locality.LOCAL)
        self.allocator: ThreadAllocator = make_allocator(
            self.config.allocation, beta=beta
        )
        self.placement: DataPlacement = make_placement(
            self.config.placement, self.topology
        )
        self.prefetcher: WorkloadPrefetcher | None = None
        if (
            self.config.prefetcher_enabled
            and self.config.memory_mode is MemoryMode.HETEROGENEOUS
        ):
            self.prefetcher = WorkloadPrefetcher(
                eta=self.config.eta, sigma=self.config.sigma
            )
        parallel = self.config.parallel
        if parallel.backend is ExecBackend.SHARED_MEMORY:
            self.kernel_executor: KernelExecutor = get_shared_executor(
                parallel.n_workers
            )
        elif parallel.backend is ExecBackend.THREADS:
            self.kernel_executor = get_threads_executor(parallel.n_workers)
        else:
            self.kernel_executor = SimulatedExecutor()
        pm = self.topology.device(MemoryKind.PM)
        self.loader = StreamingLoader(
            pm.bandwidth(
                Operation.READ,
                AccessPattern.SEQUENTIAL,
                Locality.LOCAL,
                threads=max(self.config.n_threads // 2, 1),
            )
        )
        # EaTA's split and WoFP's plans read only a matrix's sparsity
        # pattern, and Eq. 2 reads only those plus d and this engine's
        # frozen config, so they are computed once per pattern object
        # (per d) — identity, never content: with_values siblings share
        # a plan, equal arrays built twice do not — and kept while a
        # matrix on the pattern is alive.
        self._plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # The spmm.* series, each bound on its first update.
        self._counters: dict[str, Counter] = {}

    # -- device/tier resolution -------------------------------------------

    def _dram(self) -> DeviceSpec:
        return self.topology.device(MemoryKind.DRAM)

    def scaled_capacity(self, kind: MemoryKind) -> float:
        """Aggregate tier capacity after the dataset's downscale factor."""
        return self.topology.capacity(kind) / self.config.capacity_scale

    def check_dram_residency(self, working_set_bytes: float) -> None:
        """Raise :class:`CapacityError` if DRAM cannot hold a working set.

        Only meaningful in DRAM-only mode — this is how OMeGa-DRAM /
        ProNE-DRAM fail on the billion-scale graphs in Fig. 12.
        """
        if self.config.memory_mode is not MemoryMode.DRAM_ONLY:
            return
        capacity = self.scaled_capacity(MemoryKind.DRAM)
        if working_set_bytes > capacity:
            raise CapacityError(
                f"DRAM-only working set {working_set_bytes / 2**30:.2f} GiB"
                f" exceeds scaled DRAM capacity {capacity / 2**30:.2f} GiB"
            )

    # -- main entry ---------------------------------------------------------

    def multiply(
        self,
        matrix: CSDBMatrix,
        dense: np.ndarray,
        compute: bool = True,
    ) -> SpMMResult:
        """Simulated-parallel SpMM ``matrix @ dense``.

        Args:
            matrix: the sparse operand in CSDB format.
            dense: the dense operand, shape (n_cols, d); cast to
                ``matrix.dtype``, which the product comes out in.
            compute: execute the real SpMM kernel (disable for
                cost-only scalability sweeps over huge synthetic inputs).

        Raises:
            CapacityError: in DRAM-only mode when the working set
                (sparse + dense + result + scratch) exceeds the scaled
                DRAM capacity.
        """
        dense = np.asarray(dense, dtype=matrix.dtype)
        if dense.ndim == 1:
            dense = dense[:, None]
        if dense.shape[0] != matrix.n_cols:
            raise ValueError(
                f"dimension mismatch: {matrix.shape} @ {dense.shape}"
            )
        d = dense.shape[1]
        sparse_bytes = matrix.nnz * SPARSE_BYTES_PER_NNZ + matrix.index_bytes()
        dense_bytes = float(matrix.n_cols * d * MODELLED_ITEM_BYTES)
        result_bytes = float(matrix.n_rows * d * MODELLED_ITEM_BYTES)
        self.check_dram_residency(
            sparse_bytes + 2.0 * dense_bytes + 2.0 * result_bytes
        )

        instrumented = (
            matrix, dense, d, sparse_bytes, dense_bytes, result_bytes, compute
        )
        if isinstance(self.tracer, NullTracer):
            # Every NullTracer method is inert; skip the span's setup.
            return self._multiply_instrumented(*instrumented)
        with self.tracer.span(
            "spmm", nnz=matrix.nnz, n_rows=matrix.n_rows, dim=d
        ) as span:
            result = self._multiply_instrumented(*instrumented)
            self.tracer.advance_sim(result.sim_seconds)
            span.set("sim_seconds", result.sim_seconds)
            span.set("kernel_wall_seconds", result.kernel_wall_seconds)
            span.set("exec_backend", self.config.parallel.backend.value)
        return result

    def _multiply_instrumented(
        self,
        matrix: CSDBMatrix,
        dense: np.ndarray,
        d: int,
        sparse_bytes: float,
        dense_bytes: float,
        result_bytes: float,
        compute: bool,
    ) -> SpMMResult:
        plan, replay = self._plan(matrix, d, sparse_bytes, result_bytes)
        for update, value in replay.updates:
            update(value)

        kernel_wall = 0.0
        output: np.ndarray | None = None
        if compute:
            wall_start = time.perf_counter()
            if plan.full_pass:
                output = matrix.spmm(dense)
            else:
                # The backend's own result: a serial pass over every row
                # is the kernel's product, with no buffer of ours.
                output = self.kernel_executor.run_partitions(
                    matrix, dense, plan.ranges
                )
            # Host wall-clock stays on the result and the spans; the
            # registry holds only what a seeded run determines.
            kernel_wall = time.perf_counter() - wall_start
            if not plan.full_pass and not isinstance(self.tracer, NullTracer):
                # The seam carries no telemetry; the one measured wall
                # is apportioned to the dispatched ranges by the
                # quantity Eq. 2 charges by (rows when nothing has nnz).
                total = sum(plan.weights)
                for partition, weight in zip(plan.dispatched, plan.weights):
                    self.tracer.record(
                        "spmm_partition",
                        wall_seconds=kernel_wall * weight / total,
                        apportioned=True,
                        row_start=partition.row_start,
                        row_end=partition.row_end,
                        rows=partition.n_rows,
                        nnz=partition.nnz_count,
                    )

        trace = replay.ledger.copy()
        sim_seconds = replay.makespan
        stream_plan = replay.stream_plan
        if stream_plan is not None:
            # ASL: stage the dense operand between pipeline stages,
            # overlapped with this SpMM's compute.  Only faults move it
            # from one call to the next.
            if self.faults is None:
                outcome = replay.outcome
                if replay.stream_updates is None:
                    replay.stream_updates = record_stream_metrics(
                        stream_plan, outcome.exposed_seconds, self.metrics
                    )
                for update, value in replay.stream_updates:
                    update(value)
            else:
                derate = self.faults.pm_derate()
                if derate < 1.0:
                    # A degraded PM tier stretches the transfer; the
                    # plan's batch structure is unchanged.
                    stream_plan = replace(
                        stream_plan,
                        total_load_seconds=stream_plan.total_load_seconds
                        / derate,
                    )
                outcome = self.loader.load(
                    stream_plan,
                    replay.overlap,
                    metrics=self.metrics,
                    faults=self.faults,
                    retry=self.retry_policy,
                )
            trace.charge("stream_load", outcome.exposed_seconds, dense_bytes)
            if outcome.retry_seconds > 0.0:
                trace.charge("stream_retry", outcome.retry_seconds)
            sim_seconds += outcome.total_seconds

        self._counter("spmm.calls").inc()
        self._counter("spmm.nnz").inc(matrix.nnz)
        self._counter("spmm.sim_seconds").inc(sim_seconds)
        return SpMMResult(
            output=output,
            sim_seconds=sim_seconds,
            thread_times=replay.thread_times.copy(),
            partitions=list(plan.partitions),
            prefetch_plans=list(plan.prefetch_plans),
            stream_plan=stream_plan,
            trace=trace,
            nnz=matrix.nnz,
            kernel_wall_seconds=kernel_wall,
        )

    def _counter(self, name: str) -> Counter:
        """``self.metrics.counter(name)``, looked up once."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.metrics.counter(name)
        return counter

    # -- per-pattern planning -----------------------------------------------

    def _plan(
        self,
        matrix: CSDBMatrix,
        d: int,
        sparse_bytes: float,
        result_bytes: float,
    ) -> tuple[_Plan, _Replay]:
        """A pattern's thread allocation and WoFP plans, and what a
        multiply at ``d`` replays of them.

        Computed on the first multiply of a matrix on the pattern (the
        replay: at that ``d``), reused afterwards.  The caller applies
        the replay to its own trace and the registry on every call
        regardless.
        """
        plan = self._plans.get(matrix.pattern)
        if plan is None:
            partitions = self.allocator.allocate(
                matrix, self.config.n_threads
            )
            dispatched = [p for p in partitions if p.contiguous and p.n_rows > 0]
            weights = [p.nnz_count for p in dispatched]
            if not any(weights):
                weights = [p.n_rows for p in dispatched]
            plan = self._plans[matrix.pattern] = _Plan(
                partitions,
                [
                    self.prefetcher.plan(matrix, partition)
                    if self.prefetcher is not None and partition.contiguous
                    else DisabledPrefetchPlan()
                    for partition in partitions
                ],
                dispatched,
                any(not p.contiguous and p.n_rows > 0 for p in partitions),
                [(p.row_start, p.row_end) for p in dispatched],
                weights,
            )
        replay = plan.replays.get(d)
        if replay is None:
            replay = plan.replays[d] = self._replay(
                plan, matrix, d, sparse_bytes, result_bytes
            )
        return plan, replay

    def _replay(
        self,
        plan: _Plan,
        matrix: CSDBMatrix,
        d: int,
        sparse_bytes: float,
        result_bytes: float,
    ) -> _Replay:
        """Charge one multiply's simulated time, less the kernel, once.

        Runs the ledger and the per-thread times the way a call used to
        run them on every multiply, with no faults, and binds the
        allocation and prefetch metric updates into the registry.
        """
        n_threads = self.config.n_threads
        ledger = CostTrace()

        # Allocation overhead (serial lead-in; the paper measures it
        # under 1% of runtime).
        alloc_ops = matrix.n_rows * self.allocator.overhead_ops_per_row
        alloc_seconds = self.cost_model.compute_time(alloc_ops)
        ledger.charge("allocation", alloc_seconds)
        thread_times = np.full(n_threads, alloc_seconds, dtype=np.float64)
        access_plans = [
            self.placement.access_plan(socket)
            for socket in range(self.topology.n_sockets)
        ]
        for partition, prefetch in zip(plan.partitions, plan.prefetch_plans):
            socket = self.topology.socket_of_thread(partition.thread_id, n_threads)
            seconds, charges = self._partition_cost(
                partition, prefetch, d, access_plans[socket]
            )
            thread_times[partition.thread_id] += seconds
            for charge in charges:
                ledger.charge(*charge)
        # The barrier: every thread waits for the slowest.
        makespan = float(thread_times.max())
        merge_seconds = 0.0

        # Serial tail: NaDP's cross-socket result stitch.
        merge_fraction = access_plans[0].merge_remote_write_fraction
        if merge_fraction > 0.0:
            # The stitch is itself parallel: every thread ships its share
            # of the result across the socket link.
            sharing = max(1, math.ceil(n_threads / self.topology.n_sockets))
            merge_seconds = self.cost_model.access_time(
                self._dense_device,
                Operation.WRITE,
                AccessPattern.SEQUENTIAL,
                Locality.REMOTE,
                merge_fraction * result_bytes / n_threads,
                threads_sharing=sharing,
            )
            ledger.charge("merge", merge_seconds, merge_fraction * result_bytes)

        stream_plan: StreamPlan | None = None
        outcome: LoadOutcome | None = None
        overlap = 0.0
        if self.config.memory_mode is MemoryMode.HETEROGENEOUS:
            if self.config.streaming_enabled:
                dram_budget = self.config.dram_headroom * self.scaled_capacity(
                    MemoryKind.DRAM
                )
                overlap = makespan
            else:
                dram_budget = 0.0
            stream_plan = self.loader.plan(
                matrix.n_cols, d, dram_budget, sparse_bytes
            )
            outcome = self.loader.load(stream_plan, overlap)
        updates = record_allocation_metrics(
            plan.partitions, self.metrics, self.allocator.name
        )
        for partition, prefetch in zip(plan.partitions, plan.prefetch_plans):
            updates += record_prefetch_metrics(
                prefetch, partition, d, self.metrics
            )
        return _Replay(
            ledger,
            thread_times,
            makespan + merge_seconds,
            overlap,
            stream_plan,
            outcome,
            updates,
        )

    # -- per-partition costing ----------------------------------------------

    def _partition_cost(
        self,
        partition: WorkloadPartition,
        prefetch: PrefetchPlan | DisabledPrefetchPlan,
        d: int,
        plan: AccessPlan,
    ) -> PartitionCost:
        """Eq. 2: simulated seconds for one thread's workload, whose
        socket's locality mix is ``plan``.

        Returns the total and the ``(category, seconds, bytes)`` ledger
        charges that make it up, in charging order.
        """
        if partition.nnz_count == 0 and partition.n_rows == 0:
            return 0.0, ()
        n_threads = self.config.n_threads
        sharing = max(1, math.ceil(n_threads / self.topology.n_sockets))
        device = self._dense_device
        dram = self._dram()
        w = partition.nnz_count
        rows = partition.n_rows
        z = partition.z_entropy

        # (1) read_index — sequential row-metadata reads.
        index_bytes = rows * INDEX_BYTES_PER_ROW
        t_index = self._split_locality(
            device,
            Operation.READ,
            AccessPattern.SEQUENTIAL,
            index_bytes,
            plan.sparse_local_fraction,
            sharing,
        )
        charges = [("read_index", t_index, index_bytes)]

        # (2) get_sparse_nnz — sequential edge-stream reads.
        sparse_bytes = w * SPARSE_BYTES_PER_NNZ
        t_sparse = self._split_locality(
            device,
            Operation.READ,
            AccessPattern.SEQUENTIAL,
            sparse_bytes,
            plan.sparse_local_fraction,
            sharing,
        )
        charges.append(("get_sparse_nnz", t_sparse, sparse_bytes))

        # (3) get_dense_nnz — scattered dense-row gathers at Eq. 5
        # bandwidth; WoFP hits come from DRAM.
        dense_bytes = float(w * d * MODELLED_ITEM_BYTES)
        hit_bytes = dense_bytes * prefetch.hit_fraction
        miss_bytes = dense_bytes - hit_bytes
        t_dense = 0.0
        local_share = plan.dense_local_fraction
        if hit_bytes > 0.0:
            # The pinned rows live in DRAM wherever the placement policy
            # put them: NaDP keeps them socket-local, the OS policies
            # spread them and pay scattered cross-socket traffic.
            t_dense += self.cost_model.entropy_access_time(
                dram, Locality.LOCAL, hit_bytes * local_share, z, sharing
            )
            t_dense += self.cost_model.entropy_access_time(
                dram,
                Locality.REMOTE,
                hit_bytes * (1.0 - local_share),
                z,
                sharing,
            )
        if miss_bytes > 0.0:
            t_dense += self.cost_model.entropy_access_time(
                device, Locality.LOCAL, miss_bytes * local_share, z, sharing
            )
            t_dense += self.cost_model.entropy_access_time(
                device,
                Locality.REMOTE,
                miss_bytes * (1.0 - local_share),
                z,
                sharing,
            )
        t_dense *= self.config.kernel_slowdown
        charges.append(("get_dense_nnz", t_dense, dense_bytes))

        # (4) accumulate — CPU-bound, except PM-only where the scratch
        # accumulators themselves live on PM and every MAC pays a PM
        # read-modify-write.
        macs = float(w * d)
        t_acc = self.cost_model.compute_time(macs)
        if self.config.memory_mode is MemoryMode.PM_ONLY:
            scratch_bytes = macs * SCRATCH_BYTES_PER_MAC
            t_scratch = self.cost_model.access_time(
                device,
                Operation.WRITE,
                AccessPattern.RANDOM,
                Locality.LOCAL,
                scratch_bytes,
                sharing,
            )
            t_acc = max(t_acc, t_scratch)
        t_acc *= self.config.kernel_slowdown
        charges.append(("accumulate", t_acc, 0.0))

        # (5) write_result — sequential result writes.
        result_bytes = float(rows * d * MODELLED_ITEM_BYTES)
        t_write = self._split_locality(
            device,
            Operation.WRITE,
            AccessPattern.SEQUENTIAL,
            result_bytes,
            plan.write_local_fraction,
            sharing,
        )
        charges.append(("write_result", t_write, result_bytes))

        # WoFP overhead: populate the top-M map (one PM->DRAM transfer of
        # the pinned rows, mostly overlapped by the back-end thread) plus
        # hash maintenance.
        t_prefetch = 0.0
        if prefetch.capacity > 0:
            pinned = prefetch.pinned_bytes(d)
            t_load = self.cost_model.access_time(
                device,
                Operation.READ,
                AccessPattern.SEQUENTIAL,
                Locality.LOCAL,
                pinned,
                sharing,
            )
            t_prefetch = t_load * PREFETCH_EXPOSED_FRACTION
            t_prefetch += self.cost_model.compute_time(prefetch.maintenance_ops)
            charges.append(("prefetch", t_prefetch, pinned))

        return (
            t_index + t_sparse + t_dense + t_acc + t_write + t_prefetch,
            tuple(charges),
        )

    def _split_locality(
        self,
        device: DeviceSpec,
        op: Operation,
        pattern: AccessPattern,
        nbytes: float,
        local_fraction: float,
        sharing: int,
    ) -> float:
        """Cost of a batch split between local and remote accesses."""
        seconds = 0.0
        local_bytes = nbytes * local_fraction
        remote_bytes = nbytes - local_bytes
        if local_bytes > 0.0:
            seconds += self.cost_model.access_time(
                device, op, pattern, Locality.LOCAL, local_bytes, sharing
            )
        if remote_bytes > 0.0:
            seconds += self.cost_model.access_time(
                device, op, pattern, Locality.REMOTE, remote_bytes, sharing
            )
        return seconds
