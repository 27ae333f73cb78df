"""Baseline systems the paper compares against.

Two families:

- :mod:`repro.baselines.systems` — the paper's own arms (OMeGa-DRAM,
  OMeGa-PM, ProNE-DRAM, ProNE-HM, and the ablation arms), all of which
  are configurations of the same instrumented engine;
- :mod:`repro.baselines.external` — simulators of the published
  competitor systems (Ginex, MariusGNN, DistDGL, DistGER, SEM-SpMM,
  FusedMM), each modeling that system's architectural bottleneck (SSD
  I/O, out-of-core partition swapping, distributed sampling + gradient
  sync, semi-external SpMM, fused in-memory kernels) on the shared
  device models, driven by *real* sampling/caching/walk substrates in
  :mod:`repro.baselines.sampling`.
"""

from repro.baselines.comet import BufferSchedule, greedy_buffer_order, swap_efficiency
from repro.baselines.deepwalk import DeepWalkEmbedder, DeepWalkParams
from repro.baselines.external import (
    DistDGLSimulator,
    DistGERSimulator,
    ExternalSystemResult,
    FusedMMSimulator,
    GinexSimulator,
    MariusGNNSimulator,
    SEMSpMMSimulator,
)
from repro.baselines.sampling import (
    FeatureCache,
    NeighborSampler,
    RandomWalker,
    belady_hit_rate,
)
from repro.baselines.systems import (
    SystemArm,
    SystemResult,
    run_arm,
    standard_arms,
)

__all__ = [
    "BufferSchedule",
    "DeepWalkEmbedder",
    "DeepWalkParams",
    "DistDGLSimulator",
    "DistGERSimulator",
    "ExternalSystemResult",
    "FeatureCache",
    "FusedMMSimulator",
    "GinexSimulator",
    "MariusGNNSimulator",
    "NeighborSampler",
    "RandomWalker",
    "SEMSpMMSimulator",
    "SystemArm",
    "SystemResult",
    "belady_hit_rate",
    "greedy_buffer_order",
    "run_arm",
    "swap_efficiency",
    "standard_arms",
]
