"""OMeGa core: the paper's primary contribution.

- :mod:`repro.core.config` — configuration of every experiment arm;
- :mod:`repro.core.eata` — entropy-aware thread allocation (+ RR/WaTA);
- :mod:`repro.core.wofp` — workload feature-aware prefetcher;
- :mod:`repro.core.nadp` — NUMA-aware data placement (+ OS policies);
- :mod:`repro.core.asl` — asynchronous adaptive streaming loading;
- :mod:`repro.core.spmm` — the instrumented parallel SpMM engine;
- :mod:`repro.core.embedding` — the end-to-end ProNE-on-heterogeneous-
  memory embedding pipeline.
"""

from repro.core.asl import (
    DEFAULT_RETRY_POLICY,
    LoadOutcome,
    RetryPolicy,
    StreamingLoader,
    StreamPlan,
    optimal_partitions,
)
from repro.core.config import (
    AllocationScheme,
    ExecBackend,
    MemoryMode,
    OMeGaConfig,
    ParallelConfig,
    PlacementScheme,
    omega_config,
    omega_dram_config,
    omega_pm_config,
)
from repro.core.eata import (
    AllocatorContext,
    EntropyAwareAllocator,
    NaturalOrderRoundRobinAllocator,
    RoundRobinAllocator,
    ThreadAllocator,
    WorkloadBalancedAllocator,
    WorkloadPartition,
    make_allocator,
)
from repro.core.embedding import (
    PIPELINE_STAGES,
    EmbeddingResult,
    OMeGaEmbedder,
    PipelineRun,
    PipelineState,
)
from repro.core.nadp import (
    FALLBACK_ORDER,
    AccessPlan,
    DataPlacement,
    InterleavePlacement,
    LocalPlacement,
    NaDPPlacement,
    TierFallback,
    make_placement,
    plan_tier_fallback,
)
from repro.core.spmm import SpMMEngine, SpMMResult
from repro.core.wofp import PrefetchPlan, WorkloadPrefetcher

__all__ = [
    "AccessPlan",
    "AllocationScheme",
    "AllocatorContext",
    "DEFAULT_RETRY_POLICY",
    "DataPlacement",
    "EmbeddingResult",
    "EntropyAwareAllocator",
    "ExecBackend",
    "FALLBACK_ORDER",
    "InterleavePlacement",
    "LoadOutcome",
    "LocalPlacement",
    "MemoryMode",
    "NaDPPlacement",
    "NaturalOrderRoundRobinAllocator",
    "OMeGaConfig",
    "OMeGaEmbedder",
    "PIPELINE_STAGES",
    "ParallelConfig",
    "PipelineRun",
    "PipelineState",
    "PlacementScheme",
    "PrefetchPlan",
    "RetryPolicy",
    "RoundRobinAllocator",
    "SpMMEngine",
    "SpMMResult",
    "StreamPlan",
    "StreamingLoader",
    "ThreadAllocator",
    "TierFallback",
    "WorkloadBalancedAllocator",
    "WorkloadPartition",
    "WorkloadPrefetcher",
    "make_allocator",
    "make_placement",
    "plan_tier_fallback",
    "omega_config",
    "omega_dram_config",
    "omega_pm_config",
    "optimal_partitions",
]
