"""Configuration of the OMeGa engine and its ablation knobs.

Every experiment arm in the paper's evaluation maps onto one
:class:`OMeGaConfig`:

- OMeGa            -> defaults (heterogeneous, EaTA, WoFP, NaDP, ASL);
- OMeGa-DRAM       -> ``memory_mode=DRAM_ONLY``;
- OMeGa-PM         -> ``memory_mode=PM_ONLY``;
- OMeGa-w/o-WoFP   -> ``prefetcher_enabled=False``;
- OMeGa-w/o-NaDP   -> ``placement=INTERLEAVE``;
- RR / WaTA arms   -> ``allocation=ROUND_ROBIN / WORKLOAD_BALANCED``.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field, replace

from repro.memsim.numa import NumaTopology


class MemoryMode(enum.Enum):
    """Which tiers the engine may use."""

    HETEROGENEOUS = "hm"
    DRAM_ONLY = "dram"
    PM_ONLY = "pm"


class AllocationScheme(enum.Enum):
    """Thread-allocation strategy for parallel SpMM (§III-B).

    ``ROUND_ROBIN`` is the toolkit default applied to OMeGa's
    degree-sorted CSDB rows (the arm of Table II);
    ``NATURAL_ROUND_ROBIN`` is the same static split over the *original*
    row order — what a CSR-based system like ProNE actually experiences,
    where mixed degrees per chunk balance the byte counts but make every
    chunk maximally scattered.
    """

    ROUND_ROBIN = "rr"
    NATURAL_ROUND_ROBIN = "natural-rr"
    WORKLOAD_BALANCED = "wata"
    ENTROPY_AWARE = "eata"


class PlacementScheme(enum.Enum):
    """NUMA data-placement policy (§III-D)."""

    NADP = "nadp"
    INTERLEAVE = "interleave"
    LOCAL = "local"


class ExecBackend(enum.Enum):
    """Which execution backend runs the real SpMM kernels.

    ``SIMULATED`` keeps the historical behavior: kernels execute
    serially in-process while only simulated clocks advance per logical
    thread.  ``SHARED_MEMORY`` runs EaTA partitions concurrently on a
    pool of worker processes over zero-copy shared-memory views of the
    CSDB arrays (see :mod:`repro.parallel.shared`).  ``THREADS`` runs
    them on a persistent in-process thread pool with zero segment
    copies (see :mod:`repro.parallel.threads`) — the compiled kernel
    releases the GIL, and on free-threaded CPython the threads are fully
    concurrent.  The simulated cost accounting is charged identically
    in every backend, and the numeric output is bit-identical.
    """

    SIMULATED = "simulated"
    SHARED_MEMORY = "shared_memory"
    THREADS = "threads"


@dataclass(frozen=True)
class ParallelConfig:
    """Execution-backend selection for the real (wall-clock) kernels.

    Attributes:
        backend: which executor runs the SpMM kernels.  The simulated
            cost model is unaffected by this choice.
        n_workers: worker processes in the shared-memory pool (or
            threads in the threads pool).  This is
            a *physical* resource knob, distinct from the *logical*
            ``OMeGaConfig.n_threads`` the cost model partitions over;
            the pool consumes the logical partitions work-stealing
            style.
    """

    backend: ExecBackend = ExecBackend.SIMULATED
    n_workers: int = 2

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")

    @classmethod
    def default(cls) -> "ParallelConfig":
        """Environment-overridable default backend.

        ``REPRO_EXEC_BACKEND`` / ``REPRO_WORKERS`` flip the default so
        an unmodified test suite can run once against the shared-memory
        backend (the CI smoke job); unset, the simulated backend keeps
        deterministic single-process behavior.
        """
        backend = ExecBackend(
            os.environ.get("REPRO_EXEC_BACKEND", ExecBackend.SIMULATED.value)
        )
        n_workers = int(os.environ.get("REPRO_WORKERS", "2"))
        return cls(backend=backend, n_workers=n_workers)


@dataclass(frozen=True)
class OMeGaConfig:
    """Full configuration of an OMeGa engine instance.

    Attributes:
        n_threads: logical worker threads (the paper uses 30 of 36).
        memory_mode: tier usage (heterogeneous / DRAM-only / PM-only).
        allocation: thread-allocation scheme.
        prefetcher_enabled: enable the WoFP prefetcher.
        eta: WoFP prefetcher-type selection threshold (the paper's
            ``η``): a workload uses the frequency-based prefetcher when
            its mean nnz/row is at least ``|V| * eta``.
        sigma: WoFP prefetch-size parameter (``σ``): the top-M capacity
            is ``M = W_i * sigma`` entries.
        placement: NUMA placement policy (NaDP or an OS policy).
        streaming_enabled: enable ASL streaming between DRAM and PM.
        dim: embedding dimensionality ``d``.
        capacity_scale: divide simulated device capacities by this factor
            (matched to a dataset's downscale factor so memory pressure is
            preserved; see ``repro.graphs.datasets``).
        kernel_slowdown: multiplier on the gather/accumulate cost of the
            SpMM inner loop, modelling kernel quality.  1.0 is OMeGa's
            blocked CSDB kernel; the ProNE arms use ~2.5 for the generic
            unblocked CSR kernel (scipy-class), per published CSR-vs-
            optimized SpMM gaps.
        graph_format: in-memory format built by the reading procedure —
            ``"csdb"`` (OMeGa) or ``"csr"`` (the baselines); affects the
            simulated graph-read cost (Fig. 19a).
        dram_headroom: fraction of DRAM the streaming loader may use.
        topology: the NUMA machine model.
        seed: RNG seed for randomized algorithms (tSVD range finder).
        parallel: real-execution backend selection (simulated vs
            shared-memory worker pool); orthogonal to the cost model.
    """

    n_threads: int = 8
    memory_mode: MemoryMode = MemoryMode.HETEROGENEOUS
    allocation: AllocationScheme = AllocationScheme.ENTROPY_AWARE
    prefetcher_enabled: bool = True
    eta: float = 0.01
    sigma: float = 0.25
    placement: PlacementScheme = PlacementScheme.NADP
    streaming_enabled: bool = True
    dim: int = 32
    capacity_scale: int = 1
    kernel_slowdown: float = 1.0
    graph_format: str = "csdb"
    dram_headroom: float = 0.5
    topology: NumaTopology = field(default_factory=NumaTopology)
    seed: int = 0
    parallel: ParallelConfig = field(default_factory=ParallelConfig.default)

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {self.n_threads}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 0.0 < self.eta:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must be in [0, 1], got {self.sigma}")
        if self.capacity_scale < 1:
            raise ValueError(
                f"capacity_scale must be >= 1, got {self.capacity_scale}"
            )
        if self.kernel_slowdown < 1.0:
            raise ValueError(
                f"kernel_slowdown must be >= 1, got {self.kernel_slowdown}"
            )
        if self.graph_format not in ("csdb", "csr"):
            raise ValueError(
                f"graph_format must be 'csdb' or 'csr', got {self.graph_format!r}"
            )
        if not 0.0 < self.dram_headroom <= 1.0:
            raise ValueError(
                f"dram_headroom must be in (0, 1], got {self.dram_headroom}"
            )

    def with_overrides(self, **kwargs: object) -> "OMeGaConfig":
        """Copy with fields replaced (convenience for experiment arms)."""
        return replace(self, **kwargs)


def omega_config(**kwargs: object) -> OMeGaConfig:
    """Full OMeGa: all optimizations on (the paper's primary system)."""
    return OMeGaConfig(**kwargs)


def omega_dram_config(**kwargs: object) -> OMeGaConfig:
    """OMeGa-DRAM: the ideal all-DRAM baseline."""
    kwargs.setdefault("memory_mode", MemoryMode.DRAM_ONLY)
    kwargs.setdefault("streaming_enabled", False)
    return OMeGaConfig(**kwargs)


def omega_pm_config(**kwargs: object) -> OMeGaConfig:
    """OMeGa-PM: the worst-case all-PM baseline."""
    kwargs.setdefault("memory_mode", MemoryMode.PM_ONLY)
    kwargs.setdefault("prefetcher_enabled", False)
    kwargs.setdefault("streaming_enabled", False)
    return OMeGaConfig(**kwargs)
