"""Analytical cost model: access batches -> simulated seconds.

This module is the heart of the simulation substrate.  Every data movement
performed by the SpMM engine is expressed as a *batch* (so many bytes, on
such a device, with such a pattern and locality, shared by so many
threads) and converted into simulated time.

Two features map directly onto the paper:

- :meth:`CostModel.entropy_interpolated_bandwidth` implements Eq. 5,
  ``BW_eff = BW_seq * (1 - Z(H) + beta * Z(H))`` with
  ``beta = BW_rand / BW_seq``: a workload whose normalized entropy ``Z``
  approaches 1 degrades to random bandwidth, while ``Z -> 0`` retains the
  full sequential bandwidth.
- :meth:`CostModel.compute_time` charges multiply-accumulate work against
  the per-core arithmetic throughput (term 4 of Eq. 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memsim.devices import (
    CPU_MACS_PER_SECOND,
    AccessPattern,
    DeviceSpec,
    Locality,
    Operation,
)


def bandwidth_factor(z, beta):
    """Eq. 5's bandwidth-degradation factor ``g(z) = 1 - z + beta * z``.

    The share of sequential bandwidth a workload of normalized entropy
    ``z`` keeps when ``beta = BW_rand / BW_seq``; elementwise on arrays.
    """
    return 1.0 - z + beta * z


@dataclass(frozen=True)
class CostModel:
    """Converts access batches into simulated seconds.

    Attributes:
        cpu_macs_per_second: sustained per-core multiply-accumulate rate.
        latency_batch_bytes: granularity at which per-access latency is
            charged.  Hardware amortizes latency over cache-line/XPLine
            bursts; we charge one latency per 256-byte burst of a random
            batch and one per 4 KiB of a sequential batch.
    """

    cpu_macs_per_second: float = CPU_MACS_PER_SECOND
    random_burst_bytes: int = 256
    sequential_burst_bytes: int = 4096
    #: Effective cross-socket (UPI) bandwidth available to *scattered*
    #: remote traffic, shared by all threads issuing it.  Sequential
    #: remote streams run near link peak (the Fig. 9 observation that
    #: sequential remote PM reads match local ones), but cache-line-
    #: granular scattered transfers waste most of each link flit, so the
    #: usable bandwidth collapses — the reason NaDP keeps dense gathers
    #: and writes socket-local.
    #: 3.5 GiB/s reflects measured cross-socket random-access throughput
    #: collapse on Cascade Lake (UPI flit waste + directory coherence on
    #: Optane-backed lines).
    interconnect_scattered_bandwidth: float = 3.5 * 1024**3

    def access_time(
        self,
        device: DeviceSpec,
        op: Operation,
        pattern: AccessPattern,
        locality: Locality,
        nbytes: float,
        threads_sharing: int = 1,
    ) -> float:
        """Simulated seconds for one thread to move ``nbytes``.

        ``threads_sharing`` is the number of threads concurrently hammering
        the same device; bandwidth is divided according to the device's
        saturation curve.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if nbytes == 0:
            return 0.0
        bandwidth = device.per_thread_bandwidth(op, pattern, locality, threads_sharing)
        transfer = nbytes / bandwidth
        if pattern is AccessPattern.SEQUENTIAL:
            # Streaming accesses pipeline: one setup latency, then the
            # transfer runs at bandwidth.
            return device.latency(op, locality) + transfer
        if locality is Locality.REMOTE:
            cap = (
                self.interconnect_scattered_bandwidth
                * device.interconnect_efficiency
                / threads_sharing
            )
            transfer = max(transfer, nbytes / cap)
        burst = getattr(device, "random_burst_bytes", self.random_burst_bytes)
        n_bursts = max(1.0, nbytes / burst)
        # Random-access latency overlaps with transfer on real hardware;
        # charge the max of the bandwidth-bound and latency-bound
        # estimates rather than the sum.
        latency = n_bursts * device.latency(op, locality)
        return max(transfer, latency)

    def entropy_interpolated_bandwidth(
        self,
        device: DeviceSpec,
        locality: Locality,
        z_entropy: float,
        threads_sharing: int = 1,
        op: Operation = Operation.READ,
    ) -> float:
        """Eq. 5: bandwidth for a workload with normalized entropy ``z``.

        ``z = 0`` means fully sequential access (dense-matrix rows touched
        contiguously), ``z = 1`` means fully scattered access.
        """
        if not 0.0 <= z_entropy <= 1.0 + 1e-9:
            raise ValueError(f"z_entropy must be in [0, 1], got {z_entropy}")
        z = min(z_entropy, 1.0)
        bw_seq = device.per_thread_bandwidth(
            op, AccessPattern.SEQUENTIAL, locality, threads_sharing
        )
        bw_rand = device.per_thread_bandwidth(
            op, AccessPattern.RANDOM, locality, threads_sharing
        )
        beta = (bw_rand / bw_seq) * device.scatter_beta_scale
        return bw_seq * bandwidth_factor(z, beta)

    def entropy_access_time(
        self,
        device: DeviceSpec,
        locality: Locality,
        nbytes: float,
        z_entropy: float,
        threads_sharing: int = 1,
        op: Operation = Operation.READ,
    ) -> float:
        """Seconds to move ``nbytes`` at the Eq. 5 interpolated bandwidth."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if nbytes == 0:
            return 0.0
        bandwidth = self.entropy_interpolated_bandwidth(
            device, locality, z_entropy, threads_sharing, op
        )
        if locality is Locality.REMOTE and z_entropy > 0.0:
            # The scattered share of a remote stream is throttled by the
            # interconnect's poor cache-line-granular efficiency (much
            # worse when the remote medium is Optane than DRAM).
            cap = (
                self.interconnect_scattered_bandwidth
                * device.interconnect_efficiency
                / threads_sharing
            )
            scattered_cap = cap / z_entropy
            bandwidth = min(bandwidth, scattered_cap)
        return nbytes / bandwidth

    def compute_time(self, macs: float) -> float:
        """Seconds of arithmetic for ``macs`` multiply-accumulates (term 4)."""
        if macs < 0:
            raise ValueError(f"macs must be >= 0, got {macs}")
        return macs / self.cpu_macs_per_second

    def beta(self, device: DeviceSpec, locality: Locality) -> float:
        """The paper's beta = BW_rand / BW_seq for a device's scattered
        reads (including the device's sub-burst scatter penalty)."""
        key_seq = (Operation.READ, AccessPattern.SEQUENTIAL, locality)
        key_rand = (Operation.READ, AccessPattern.RANDOM, locality)
        ratio = device.peak_bandwidth[key_rand] / device.peak_bandwidth[key_seq]
        return ratio * device.scatter_beta_scale
