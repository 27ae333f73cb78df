"""Device models for the heterogeneous memory hierarchy.

The constants below are calibrated from the paper and the measurement
studies it cites (Yang et al., FAST'20; Izraelevitz et al.; §III-D /
Fig. 9 of the paper itself):

- PM sequential read bandwidth is ~1/3 of DRAM, PM write ~1/6 of DRAM;
- PM sequential reads (local or remote) are 2.41x / 2.45x faster than
  random local / random remote reads;
- PM sequential *local* writes beat sequential remote writes by 3.23x and
  random remote writes by 4.99x; the peak remote write bandwidth is ~69.2%
  of the aggregate local write peak;
- PM latencies are 4.2x (local) / 3.3x (remote) above the corresponding
  DRAM-based system latencies;
- the NVMe SSD is an Intel P5510-class device; the cluster interconnect of
  the distributed baselines is a 25 GbE link.

Bandwidth scales with the number of concurrent threads following a
saturating curve ``B(t) = peak * t / (t + k)`` where ``k`` is the
half-saturation thread count: PM writes saturate after only a few threads
(the well-known Optane write-contention cliff) while DRAM scales almost
linearly to the core count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

GIB = 1024.0**3


class _Key(enum.Enum):
    """An enum hashed by identity.

    Members are singletons compared by identity, so this agrees with
    ``==``; ``Enum``'s own ``__hash__`` hashes the name in Python, and
    the bandwidth and latency tables below are looked up by these keys
    dozens of times per Eq. 2 evaluation.
    """

    __hash__ = object.__hash__


class MemoryKind(_Key):
    """The tiers of the simulated storage hierarchy."""

    DRAM = "dram"
    PM = "pm"
    SSD = "ssd"
    NETWORK = "network"


class Operation(_Key):
    """Direction of a memory access."""

    READ = "read"
    WRITE = "write"


class AccessPattern(_Key):
    """Spatial access pattern of a batch of memory accesses."""

    SEQUENTIAL = "seq"
    RANDOM = "rand"


class Locality(_Key):
    """NUMA locality of an access relative to the issuing thread's socket."""

    LOCAL = "local"
    REMOTE = "remote"


#: Key into the bandwidth table of a :class:`DeviceSpec`.
BandwidthKey = tuple[Operation, AccessPattern, Locality]


def _bw_table(entries: dict[tuple[str, str, str], float]) -> dict[BandwidthKey, float]:
    """Build a bandwidth table from short string keys (GiB/s values)."""
    table: dict[BandwidthKey, float] = {}
    for (op, pattern, locality), gib_per_s in entries.items():
        key = (Operation(op), AccessPattern(pattern), Locality(locality))
        table[key] = gib_per_s * GIB
    return table


@dataclass(frozen=True)
class DeviceSpec:
    """Analytical model of one memory/storage device (per NUMA socket).

    Attributes:
        kind: tier of the device.
        name: human-readable device name.
        capacity_bytes: usable capacity per socket.
        peak_bandwidth: bytes/second at saturation, keyed by
            (operation, pattern, locality).
        latency_ns: per-access latency in nanoseconds, keyed by
            (operation, locality).
        half_saturation_threads: thread count at which the saturating
            bandwidth curve reaches half of its peak, keyed by operation.
        price_per_gib: USD per GiB, used only by the cost-efficiency
            reporting of Fig. 1.
    """

    kind: MemoryKind
    name: str
    capacity_bytes: int
    peak_bandwidth: dict[BandwidthKey, float]
    latency_ns: dict[tuple[Operation, Locality], float]
    half_saturation_threads: dict[Operation, float] = field(
        default_factory=lambda: {Operation.READ: 2.0, Operation.WRITE: 2.0}
    )
    price_per_gib: float = 0.0
    #: Extra degradation of *scattered* (entropy-driven, sub-burst) reads
    #: relative to the block-random bandwidth of the table: Optane's
    #: 256 B XPLine granularity makes element-granular gathers far slower
    #: than 256 B-block random I/O, while DRAM's open-page prefetchers
    #: recover most of the gap.  Used only by the Eq. 5 entropy path.
    scatter_beta_scale: float = 1.0
    #: Granularity of one random access (latency is charged per burst of
    #: this size): a cache-line burst for memories, a 4 KiB page for the
    #: SSD.
    random_burst_bytes: int = 256
    #: Multiplier on the cost model's cross-socket scattered-bandwidth
    #: cap when the remote target is this device.  Remote scattered DRAM
    #: runs at a healthy fraction of the UPI link; remote scattered
    #: *Optane* collapses (directory coherence + XPLine thrash), which is
    #: the asymmetry NaDP exploits.
    interconnect_efficiency: float = 1.0

    def bandwidth(
        self,
        op: Operation,
        pattern: AccessPattern,
        locality: Locality,
        threads: int = 1,
    ) -> float:
        """Aggregate bandwidth (bytes/s) available to ``threads`` threads.

        Follows the saturating contention curve described in the module
        docstring.  A single thread obtains
        ``peak / (1 + half_saturation)`` of the peak; as threads grow the
        curve approaches the peak asymptotically, matching the FIO sweeps
        of Fig. 9.
        """
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        peak = self.peak_bandwidth[(op, pattern, locality)]
        k = self.half_saturation_threads[op]
        return peak * threads / (threads + k)

    def per_thread_bandwidth(
        self,
        op: Operation,
        pattern: AccessPattern,
        locality: Locality,
        threads: int = 1,
    ) -> float:
        """Bandwidth (bytes/s) seen by each of ``threads`` contending threads."""
        return self.bandwidth(op, pattern, locality, threads) / threads

    def latency(self, op: Operation, locality: Locality) -> float:
        """Per-access latency in seconds."""
        return self.latency_ns[(op, locality)] * 1e-9


def dram_spec(capacity_gib: float = 96.0) -> DeviceSpec:
    """DDR4 DRAM model — one socket of the paper's testbed (3 x 32 GiB)."""
    return DeviceSpec(
        kind=MemoryKind.DRAM,
        name="DDR4-2933 DRAM (3 DIMMs/socket)",
        capacity_bytes=int(capacity_gib * GIB),
        peak_bandwidth=_bw_table(
            {
                ("read", "seq", "local"): 100.0,
                ("read", "seq", "remote"): 60.0,
                ("read", "rand", "local"): 40.0,
                ("read", "rand", "remote"): 26.0,
                ("write", "seq", "local"): 80.0,
                ("write", "seq", "remote"): 45.0,
                ("write", "rand", "local"): 35.0,
                ("write", "rand", "remote"): 20.0,
            }
        ),
        latency_ns={
            (Operation.READ, Locality.LOCAL): 80.0,
            (Operation.READ, Locality.REMOTE): 140.0,
            (Operation.WRITE, Locality.LOCAL): 85.0,
            (Operation.WRITE, Locality.REMOTE): 150.0,
        },
        half_saturation_threads={Operation.READ: 1.5, Operation.WRITE: 1.5},
        price_per_gib=6.95,
        scatter_beta_scale=0.85,
        interconnect_efficiency=3.5,
    )


def pm_spec(capacity_gib: float = 768.0) -> DeviceSpec:
    """Optane DC PM model — one socket of the paper's testbed (3 x 256 GiB).

    Sequential remote reads are kept comparable to sequential local reads
    (the paper's key observation motivating the *global sequential read*
    principle), while writes strongly prefer locality (*local write*):
    seq-local-write / seq-remote-write = 3.23 and
    seq-local-write / rand-remote-write = 4.99.
    """
    seq_read_local = 33.0  # DRAM/3
    seq_write_local = 13.3  # DRAM/6
    return DeviceSpec(
        kind=MemoryKind.PM,
        name="Intel Optane DCPMM 100-series (3 DIMMs/socket)",
        capacity_bytes=int(capacity_gib * GIB),
        peak_bandwidth=_bw_table(
            {
                ("read", "seq", "local"): seq_read_local,
                ("read", "seq", "remote"): seq_read_local * 0.97,
                ("read", "rand", "local"): seq_read_local / 2.41,
                ("read", "rand", "remote"): seq_read_local * 0.97 / 2.45,
                ("write", "seq", "local"): seq_write_local,
                ("write", "seq", "remote"): seq_write_local / 3.23,
                ("write", "rand", "local"): seq_write_local / 2.2,
                ("write", "rand", "remote"): seq_write_local / 4.99,
            }
        ),
        latency_ns={
            # PM latencies sit 4.2x (local) / 3.3x (remote) above the
            # DRAM-based system per the paper's MLC measurements.
            (Operation.READ, Locality.LOCAL): 80.0 * 4.2,
            (Operation.READ, Locality.REMOTE): 140.0 * 3.3,
            (Operation.WRITE, Locality.LOCAL): 85.0 * 4.2,
            (Operation.WRITE, Locality.REMOTE): 150.0 * 3.3,
        },
        half_saturation_threads={Operation.READ: 3.0, Operation.WRITE: 6.0},
        price_per_gib=3.31,
        scatter_beta_scale=0.35,
        # Remote scattered Optane collapses hardest: every miss drags a
        # directory-coherent XPLine across the socket link.
        interconnect_efficiency=0.3,
    )


def ssd_spec(capacity_gib: float = 3840.0) -> DeviceSpec:
    """Intel P5510-class NVMe SSD (for the Ginex/MariusGNN/SEM-SpMM models)."""
    return DeviceSpec(
        kind=MemoryKind.SSD,
        name="Intel P5510 3.84TB NVMe SSD",
        capacity_bytes=int(capacity_gib * GIB),
        peak_bandwidth=_bw_table(
            {
                ("read", "seq", "local"): 3.2,
                ("read", "seq", "remote"): 3.2,
                ("read", "rand", "local"): 1.5,
                ("read", "rand", "remote"): 1.5,
                ("write", "seq", "local"): 2.0,
                ("write", "seq", "remote"): 2.0,
                ("write", "rand", "local"): 0.9,
                ("write", "rand", "remote"): 0.9,
            }
        ),
        latency_ns={
            (Operation.READ, Locality.LOCAL): 82_000.0,
            (Operation.READ, Locality.REMOTE): 82_000.0,
            (Operation.WRITE, Locality.LOCAL): 20_000.0,
            (Operation.WRITE, Locality.REMOTE): 20_000.0,
        },
        half_saturation_threads={Operation.READ: 1.0, Operation.WRITE: 1.0},
        price_per_gib=0.16,
        random_burst_bytes=4096,
    )


def cxl_spec(capacity_gib: float = 768.0) -> DeviceSpec:
    """CXL Type-3 memory expander — the paper's anticipated successor tier.

    Modeled after published CXL 1.1 x8 expander measurements: roughly
    DDR5-channel-class bandwidth over the link, ~250 ns load latency,
    no NUMA-locality split (the device hangs off the link either way),
    symmetric-ish reads/writes, and far better scattered-access behaviour
    than Optane (DRAM media behind the controller).
    """
    return DeviceSpec(
        kind=MemoryKind.PM,
        name="CXL 1.1 x8 Type-3 memory expander (DDR5 media)",
        capacity_bytes=int(capacity_gib * GIB),
        peak_bandwidth=_bw_table(
            {
                ("read", "seq", "local"): 22.0,
                ("read", "seq", "remote"): 20.0,
                ("read", "rand", "local"): 14.0,
                ("read", "rand", "remote"): 12.5,
                ("write", "seq", "local"): 18.0,
                ("write", "seq", "remote"): 16.0,
                ("write", "rand", "local"): 12.0,
                ("write", "rand", "remote"): 10.5,
            }
        ),
        latency_ns={
            (Operation.READ, Locality.LOCAL): 250.0,
            (Operation.READ, Locality.REMOTE): 290.0,
            (Operation.WRITE, Locality.LOCAL): 240.0,
            (Operation.WRITE, Locality.REMOTE): 280.0,
        },
        half_saturation_threads={Operation.READ: 2.0, Operation.WRITE: 2.5},
        price_per_gib=4.10,
        scatter_beta_scale=0.7,
    )


def network_spec() -> DeviceSpec:
    """25 GbE cluster interconnect (for the DistDGL/DistGER models)."""
    return DeviceSpec(
        kind=MemoryKind.NETWORK,
        name="25 GbE interconnect",
        capacity_bytes=0,
        peak_bandwidth=_bw_table(
            {
                ("read", "seq", "local"): 2.9,
                ("read", "seq", "remote"): 2.9,
                ("read", "rand", "local"): 1.2,
                ("read", "rand", "remote"): 1.2,
                ("write", "seq", "local"): 2.9,
                ("write", "seq", "remote"): 2.9,
                ("write", "rand", "local"): 1.2,
                ("write", "rand", "remote"): 1.2,
            }
        ),
        latency_ns={
            (Operation.READ, Locality.LOCAL): 10_000.0,
            (Operation.READ, Locality.REMOTE): 10_000.0,
            (Operation.WRITE, Locality.LOCAL): 10_000.0,
            (Operation.WRITE, Locality.REMOTE): 10_000.0,
        },
        half_saturation_threads={Operation.READ: 1.0, Operation.WRITE: 1.0},
    )


#: Sustained per-core arithmetic throughput (multiply-accumulates/second)
#: of the 2.60 GHz Xeon Gold 6240 used in the paper; ~4-wide FMA AVX
#: discounted for the scalar-heavy inner loop of Algorithm 1.
CPU_MACS_PER_SECOND = 4.0e9


def default_devices() -> dict[MemoryKind, DeviceSpec]:
    """The full device complement of the paper's testbed, per socket."""
    return {
        MemoryKind.DRAM: dram_spec(),
        MemoryKind.PM: pm_spec(),
        MemoryKind.SSD: ssd_spec(),
        MemoryKind.NETWORK: network_spec(),
    }
