"""NUMA topology model.

The paper's testbed is a two-socket machine: 18 physical cores, 96 GiB
DRAM and 768 GiB PM per socket.  :class:`NumaTopology` captures the socket
layout and answers the two questions the rest of the system asks:

1. which socket does a given thread run on (thread binding), and
2. is an access from thread *t* to data on socket *s* local or remote.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memsim.devices import DeviceSpec, Locality, MemoryKind, default_devices


class CapacityError(MemoryError):
    """Raised when a working set exceeds a tier's :meth:`NumaTopology.capacity`.

    This is the simulated analogue of the OOM failures the paper reports
    for ProNE-DRAM / OMeGa-DRAM / FusedMM on billion-scale graphs.
    """


@dataclass(frozen=True)
class NumaTopology:
    """A symmetric multi-socket NUMA machine.

    Attributes:
        n_sockets: number of NUMA nodes.
        cores_per_socket: physical cores per node.
        devices: per-socket device complement (every socket is assumed to
            carry an identical set of DIMMs, as in the paper's testbed).
    """

    n_sockets: int = 2
    cores_per_socket: int = 18
    devices: dict[MemoryKind, DeviceSpec] = field(default_factory=default_devices)

    def __post_init__(self) -> None:
        if self.n_sockets < 1:
            raise ValueError(f"n_sockets must be >= 1, got {self.n_sockets}")
        if self.cores_per_socket < 1:
            raise ValueError(
                f"cores_per_socket must be >= 1, got {self.cores_per_socket}"
            )

    def socket_of_thread(self, thread_id: int, n_threads: int) -> int:
        """Socket a thread is bound to under block-wise binding.

        Threads are bound in contiguous blocks (threads ``0..n/2-1`` on
        socket 0, the rest on socket 1, generalized to ``n_sockets``),
        matching the CPU-binding based computing of NaDP (§III-D).
        """
        if not 0 <= thread_id < n_threads:
            raise ValueError(f"thread_id {thread_id} out of range [0, {n_threads})")
        per_socket = -(-n_threads // self.n_sockets)  # ceil division
        return min(thread_id // per_socket, self.n_sockets - 1)

    def locality(self, thread_socket: int, data_socket: int) -> Locality:
        """Classify an access as local or remote."""
        self._check_socket(thread_socket)
        self._check_socket(data_socket)
        if thread_socket == data_socket:
            return Locality.LOCAL
        return Locality.REMOTE

    def device(self, kind: MemoryKind) -> DeviceSpec:
        """The per-socket device spec of a given tier."""
        return self.devices[kind]

    def capacity(self, kind: MemoryKind) -> int:
        """Aggregate capacity of a tier across all sockets, in bytes."""
        return self.devices[kind].capacity_bytes * self.n_sockets

    def _check_socket(self, socket: int) -> None:
        if not 0 <= socket < self.n_sockets:
            raise ValueError(
                f"socket {socket} out of range [0, {self.n_sockets})"
            )


def paper_testbed() -> NumaTopology:
    """The exact machine of §IV-A: 2 sockets x (18 cores, 96G DRAM, 768G PM)."""
    return NumaTopology(n_sockets=2, cores_per_socket=18)


def cxl_testbed() -> NumaTopology:
    """The same machine with the Optane DIMMs swapped for CXL expanders.

    The paper's conclusion anticipates CXL replacing PM as the capacity
    tier; this topology lets every experiment re-run under that future
    (see ``benchmarks/bench_ext_cxl.py``).
    """
    from repro.memsim.devices import cxl_spec

    devices = default_devices()
    devices[MemoryKind.PM] = cxl_spec()
    return NumaTopology(n_sockets=2, cores_per_socket=18, devices=devices)
