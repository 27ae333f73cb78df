"""Heterogeneous-memory simulation substrate.

The paper evaluates OMeGa on a two-socket Optane machine (DRAM + Persistent
Memory under NUMA).  This subpackage replaces that hardware with a calibrated
analytical model:

- :mod:`repro.memsim.devices` — bandwidth/latency tables for DRAM, PM, SSD
  and the network link, including thread-count saturation curves;
- :mod:`repro.memsim.numa` — the two-socket topology, thread binding,
  and per-tier capacity (:class:`CapacityError` when a working set
  exceeds it);
- :mod:`repro.memsim.costmodel` — converts access batches (bytes, pattern,
  locality, entropy) into simulated nanoseconds, implementing Eq. 5 of the
  paper for entropy-interpolated bandwidth;
- :mod:`repro.memsim.clock` — per-thread simulated clocks and makespan;
- :mod:`repro.memsim.trace` — per-operation cost ledgers (Fig. 7a);
- :mod:`repro.memsim.probe` — the FIO/MLC-style probe that regenerates the
  bandwidth characterization of Fig. 9;
- :mod:`repro.memsim.memorymode` — the transparent Memory-Mode
  configuration (DRAM as a direct-mapped write-back cache);
- :mod:`repro.memsim.persistence` — App-direct flush/fence accounting and
  the crash-consistent stage-checkpoint WAL.

Where a buffer lives is not tracked per allocation: NaDP's per-socket
access plans (:mod:`repro.core.nadp`) give each traffic class its
locality mix, and :meth:`repro.core.spmm.SpMMEngine.check_dram_residency`
enforces DRAM capacity.

All SpMM numerics are still computed for real with numpy; only *time* is
simulated.
"""

from repro.memsim.clock import SimClock, VirtualClock
from repro.memsim.costmodel import CostModel
from repro.memsim.devices import (
    AccessPattern,
    DeviceSpec,
    Locality,
    MemoryKind,
    Operation,
    cxl_spec,
    default_devices,
    dram_spec,
    network_spec,
    pm_spec,
    ssd_spec,
)
from repro.memsim.memorymode import DirectMappedCache, MemoryModeModel
from repro.memsim.persistence import (
    CheckpointedEmbedder,
    CrashInjected,
    PersistenceDomain,
    StageCheckpointStore,
    StageRecord,
)
from repro.memsim.numa import (
    CapacityError,
    NumaTopology,
    cxl_testbed,
    paper_testbed,
)
from repro.memsim.probe import BandwidthprobeResult, probe_bandwidth, probe_latency
from repro.memsim.trace import CostTrace

__all__ = [
    "AccessPattern",
    "BandwidthprobeResult",
    "CapacityError",
    "CheckpointedEmbedder",
    "CostModel",
    "CostTrace",
    "CrashInjected",
    "DirectMappedCache",
    "MemoryModeModel",
    "PersistenceDomain",
    "StageCheckpointStore",
    "StageRecord",
    "DeviceSpec",
    "Locality",
    "MemoryKind",
    "NumaTopology",
    "Operation",
    "SimClock",
    "VirtualClock",
    "cxl_spec",
    "cxl_testbed",
    "default_devices",
    "dram_spec",
    "paper_testbed",
    "network_spec",
    "pm_spec",
    "probe_bandwidth",
    "probe_latency",
    "ssd_spec",
]
