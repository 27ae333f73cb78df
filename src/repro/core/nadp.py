"""NaDP — NUMA-aware data placement (§III-D).

The paper's Fig. 9 characterization shows PM's asymmetry under NUMA:
sequential *reads* are nearly locality-insensitive, while *writes*
strongly prefer the local socket.  NaDP therefore enforces **global
sequential read, local write**:

1. *NUMA-aware memory allocation* — the sparse matrix is row-partitioned
   and the dense matrix column-partitioned across sockets;
2. *CPU-binding based computing* — threads are bound to sockets and
   multiply every (local or remote, but always sequential) sparse row
   chunk against their socket-local dense column chunk;
3. *Local-priority based updating* — intermediate results live in
   socket-local buffers; only the final sub-matrix stitch crosses
   sockets.

Each policy is expressed as an :class:`AccessPlan` per thread socket —
the locality mix of the three traffic classes of Algorithm 1 — consumed
by the SpMM engine's cost model.  The OS policies the paper compares
against (Interleaved, Local) are provided as alternative plans.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import MemoryMode, PlacementScheme
from repro.memsim.numa import NumaTopology


@dataclass(frozen=True)
class AccessPlan:
    """Locality mix of one thread's SpMM traffic.

    Attributes:
        sparse_local_fraction: share of sparse-operand reads that are
            socket-local (always *sequential* either way under NaDP).
        dense_local_fraction: share of dense-operand reads that are local.
        write_local_fraction: share of result writes that are local.
        merge_remote_write_fraction: share of the final result that must
            cross sockets once, in the stitch step (charged serially).
    """

    sparse_local_fraction: float
    dense_local_fraction: float
    write_local_fraction: float
    merge_remote_write_fraction: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "sparse_local_fraction",
            "dense_local_fraction",
            "write_local_fraction",
            "merge_remote_write_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


class DataPlacement:
    """Base class: yields an :class:`AccessPlan` per thread socket."""

    name = "base"

    def __init__(self, topology: NumaTopology) -> None:
        self.topology = topology

    def access_plan(self, thread_socket: int) -> AccessPlan:
        """Locality mix for threads bound to ``thread_socket``."""
        raise NotImplementedError


class NaDPPlacement(DataPlacement):
    """The paper's placement: global sequential read, local write.

    Sparse chunks are spread across sockets, so a thread reads
    ``1/n_sockets`` of the sparse stream locally and the rest remotely —
    all sequential, which Fig. 9 shows is nearly free.  Dense reads and
    intermediate writes are fully local; the final stitch moves
    ``(n-1)/n`` of the result across sockets once.
    """

    name = "NaDP"

    def access_plan(self, thread_socket: int) -> AccessPlan:
        n = self.topology.n_sockets
        return AccessPlan(
            sparse_local_fraction=1.0 / n,
            dense_local_fraction=1.0,
            write_local_fraction=1.0,
            merge_remote_write_fraction=(n - 1) / n,
        )


class InterleavePlacement(DataPlacement):
    """OS Interleaved policy: pages round-robin across sockets.

    Every traffic class is local with probability ``1/n_sockets`` —
    including writes, which is exactly what NaDP eliminates.
    """

    name = "Interleave"

    def access_plan(self, thread_socket: int) -> AccessPlan:
        n = self.topology.n_sockets
        return AccessPlan(
            sparse_local_fraction=1.0 / n,
            dense_local_fraction=1.0 / n,
            write_local_fraction=1.0 / n,
            merge_remote_write_fraction=0.0,
        )


class LocalPlacement(DataPlacement):
    """OS Local (first-touch) policy: everything lands on socket 0.

    Socket-0 threads enjoy full locality; every other socket's threads
    access everything remotely — the pathological case for writes.
    """

    name = "Local"

    def access_plan(self, thread_socket: int) -> AccessPlan:
        local = 1.0 if thread_socket == 0 else 0.0
        return AccessPlan(
            sparse_local_fraction=local,
            dense_local_fraction=local,
            write_local_fraction=local,
            merge_remote_write_fraction=0.0,
        )


def make_placement(scheme: object, topology: NumaTopology) -> DataPlacement:
    """Factory mapping a :class:`PlacementScheme` to a placement."""
    scheme = PlacementScheme(scheme)
    if scheme is PlacementScheme.NADP:
        return NaDPPlacement(topology)
    if scheme is PlacementScheme.INTERLEAVE:
        return InterleavePlacement(topology)
    return LocalPlacement(topology)


#: NaDP's fallback order on a PM-tier fault, most to least preferred.
FALLBACK_ORDER = ("local_dram", "remote_dram", "asl_replan")


@dataclass(frozen=True)
class TierFallback:
    """One step of NaDP's graceful-degradation ladder.

    Attributes:
        action: the :data:`FALLBACK_ORDER` entry chosen.
        config_overrides: :class:`~repro.core.config.OMeGaConfig`
            overrides realising the re-placement.
    """

    action: str
    config_overrides: dict


def plan_tier_fallback(
    working_set_bytes: float,
    dram_capacity_bytes: float,
    n_sockets: int,
    dram_headroom: float,
) -> TierFallback:
    """Choose where hot structures go when the PM tier drops out.

    Fallback order (the degradation ladder a production deployment
    walks instead of aborting):

    1. **local DRAM** — the working set fits one socket's share of
       DRAM: run DRAM-only with first-touch local placement;
    2. **remote DRAM** — it fits aggregate DRAM only: run DRAM-only
       with interleaved placement, paying cross-socket traffic;
    3. **re-plan ASL** — DRAM cannot hold it at all: stay on the
       surviving PM capacity but halve the streaming budget, which
       raises Eq. 9's partition count and shrinks every batch.
    """
    if working_set_bytes < 0:
        raise ValueError(
            f"working_set_bytes must be >= 0, got {working_set_bytes}"
        )
    if n_sockets < 1:
        raise ValueError(f"n_sockets must be >= 1, got {n_sockets}")
    if working_set_bytes <= dram_capacity_bytes / n_sockets:
        return TierFallback(
            action="local_dram",
            config_overrides={
                "memory_mode": MemoryMode.DRAM_ONLY,
                "placement": PlacementScheme.LOCAL,
                "streaming_enabled": False,
                "prefetcher_enabled": False,
            },
        )
    if working_set_bytes <= dram_capacity_bytes:
        return TierFallback(
            action="remote_dram",
            config_overrides={
                "memory_mode": MemoryMode.DRAM_ONLY,
                "placement": PlacementScheme.INTERLEAVE,
                "streaming_enabled": False,
                "prefetcher_enabled": False,
            },
        )
    return TierFallback(
        action="asl_replan",
        config_overrides={"dram_headroom": dram_headroom / 2.0},
    )
