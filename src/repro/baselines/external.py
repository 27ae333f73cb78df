"""Simulators of the published competitor systems (Figs. 12 and 18).

We cannot run Ginex / MariusGNN / DistDGL / DistGER / SEM-SpMM / FusedMM
(they need V100 GPUs, a 4-machine cluster and hundreds of GiB of RAM), so
each is modeled by its architectural bottleneck on the shared device
models, driven by real substrates where data movement depends on the
graph:

========== =========================================================
System     Bottleneck modeled
========== =========================================================
Ginex      SSD feature fetches under provably-optimal (Belady) caching,
           from a *real* neighbor-sampling trace
MariusGNN  out-of-core partition-buffer swaps (sequential SSD I/O)
DistDGL    distributed neighbor sampling (~80% of runtime) + gradient
           synchronization over the 25 GbE model
DistGER    distributed information-oriented random walks + SGNS updates,
           from a *real* walk generator
SEM-SpMM   semi-external SpMM: sparse matrix streamed from SSD
FusedMM    fused in-memory kernels, single-socket DRAM, CSR scheduling
           (an engine configuration; OOMs at billion scale like the
           paper reports)
========== =========================================================

Calibration constants (epochs, fanouts, walk lengths) follow the default
configurations of the respective papers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.sampling import NeighborSampler, RandomWalker, belady_hit_rate
from repro.core.config import (
    AllocationScheme,
    MemoryMode,
    OMeGaConfig,
    PlacementScheme,
)
from repro.core.spmm import SPARSE_BYTES_PER_NNZ, SpMMEngine
from repro.graphs.datasets import Dataset
from repro.memsim.costmodel import CostModel
from repro.memsim.devices import (
    AccessPattern,
    Locality,
    MemoryKind,
    Operation,
)
from repro.memsim.numa import CapacityError, NumaTopology


@dataclass
class ExternalSystemResult:
    """Outcome of one competitor run on one dataset."""

    system: str
    dataset: str
    status: str
    sim_seconds: float

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExternalSystemResult({self.system} on {self.dataset}:"
            f" {self.status}, {self.sim_seconds:.4f}s)"
        )


class _BaseSimulator:
    """Shared plumbing: device handles and the cost model."""

    name = "base"

    def __init__(
        self,
        topology: NumaTopology | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        self.topology = topology or NumaTopology()
        self.cost_model = cost_model or CostModel()

    def _ssd_seq_read(self, nbytes: float) -> float:
        return self.cost_model.access_time(
            self.topology.device(MemoryKind.SSD),
            Operation.READ,
            AccessPattern.SEQUENTIAL,
            Locality.LOCAL,
            nbytes,
        )

    def _ssd_rand_read(self, nbytes: float) -> float:
        return self.cost_model.access_time(
            self.topology.device(MemoryKind.SSD),
            Operation.READ,
            AccessPattern.RANDOM,
            Locality.LOCAL,
            nbytes,
        )

    def _net_transfer(self, nbytes: float) -> float:
        return self.cost_model.access_time(
            self.topology.device(MemoryKind.NETWORK),
            Operation.READ,
            AccessPattern.SEQUENTIAL,
            Locality.LOCAL,
            nbytes,
        )

    def run(self, dataset: Dataset, dim: int = 32) -> ExternalSystemResult:
        """End-to-end embedding-generation time on a dataset."""
        raise NotImplementedError


class GinexSimulator(_BaseSimulator):
    """Ginex (VLDB'22): SSD-based GNN training, one GPU, optimal caching.

    Per epoch, every minibatch samples an L-hop neighborhood and fetches
    the features of all touched nodes; Ginex's contribution is serving a
    maximal share of those fetches from an in-memory cache whose
    replacement is offline-optimal (computed from the pre-recorded
    sampling trace).  The remainder hits the SSD at random-read
    bandwidth — the bottleneck the paper's Fig. 12 exposes.
    """

    name = "Ginex"

    def __init__(
        self,
        epochs: int = 15,
        batch_size: int = 1024,
        fanouts: tuple[int, ...] = (15, 10, 5),
        cache_fraction: float = 0.2,
        sample_batches: int = 4,
        gpu_flops: float = 1.0e13,
        seed: int = 0,
        **kwargs: object,
    ) -> None:
        super().__init__(**kwargs)
        self.epochs = epochs
        self.batch_size = batch_size
        self.fanouts = fanouts
        self.cache_fraction = cache_fraction
        self.sample_batches = sample_batches
        self.gpu_flops = gpu_flops
        self.seed = seed

    def run(self, dataset: Dataset, dim: int = 32) -> ExternalSystemResult:
        adjacency = dataset.adjacency_csr()
        sampler = NeighborSampler(adjacency, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        n = dataset.n_nodes
        feature_row_bytes = dim * 8.0
        # Measure a few real minibatches; extrapolate per-epoch traffic.
        touched_counts: list[int] = []
        edge_counts: list[int] = []
        trace: list[np.ndarray] = []
        for _ in range(self.sample_batches):
            batch = rng.choice(n, size=min(self.batch_size, n), replace=False)
            touched, n_edges = sampler.sample_minibatch(batch, self.fanouts)
            touched_counts.append(len(touched))
            edge_counts.append(n_edges)
            trace.append(touched)
        cache_entries = int(self.cache_fraction * n)
        hit_rate = belady_hit_rate(np.concatenate(trace), cache_entries)
        batches_per_epoch = max(1, -(-n // self.batch_size))
        touched_per_batch = float(np.mean(touched_counts))
        edges_per_batch = float(np.mean(edge_counts))
        miss_bytes = (
            self.epochs
            * batches_per_epoch
            * touched_per_batch
            * feature_row_bytes
            * (1.0 - hit_rate)
        )
        # Ginex issues feature fetches through deep asynchronous NVMe
        # queues (its "superbatch" pipeline), so random I/O runs at the
        # device's random *bandwidth* rather than serialized page latency.
        ssd = self.topology.device(MemoryKind.SSD)
        io_seconds = miss_bytes / ssd.bandwidth(
            Operation.READ, AccessPattern.RANDOM, Locality.LOCAL, threads=8
        )
        sampling_ops = self.epochs * batches_per_epoch * edges_per_batch * 30.0
        sample_seconds = self.cost_model.compute_time(sampling_ops)
        gpu_flop = (
            self.epochs * batches_per_epoch * edges_per_batch * dim * 4.0
        )
        gpu_seconds = gpu_flop / self.gpu_flops
        return ExternalSystemResult(
            system=self.name,
            dataset=dataset.name,
            status="ok",
            sim_seconds=io_seconds + sample_seconds + gpu_seconds,
        )


class MariusGNNSimulator(_BaseSimulator):
    """MariusGNN (EuroSys'23): out-of-core training via partition swaps.

    Node features and embeddings are split into ``n_partitions`` on SSD;
    an epoch walks a buffer-swap order covering all partition pairs, so
    the sequential I/O per epoch is roughly ``replication x feature
    bytes`` plus the edge list.  GPU compute overlaps, so I/O dominates.
    """

    name = "MariusGNN"

    def __init__(
        self,
        epochs: int = 25,
        n_partitions: int = 8,
        buffer_partitions: int = 4,
        hidden_dim: int = 256,
        gpu_flops: float = 1.0e13,
        **kwargs: object,
    ) -> None:
        super().__init__(**kwargs)
        if buffer_partitions < 2 or n_partitions < buffer_partitions:
            raise ValueError(
                "need 2 <= buffer_partitions <= n_partitions, got"
                f" {buffer_partitions}, {n_partitions}"
            )
        self.epochs = epochs
        self.n_partitions = n_partitions
        self.buffer_partitions = buffer_partitions
        self.hidden_dim = hidden_dim
        self.gpu_flops = gpu_flops

    def swaps_per_epoch(self) -> int:
        """Partition loads per epoch under the greedy COMET buffer order.

        Computed by actually running the buffer-ordering algorithm (see
        :mod:`repro.baselines.comet`), not by a closed-form guess.
        """
        from repro.baselines.comet import greedy_buffer_order

        schedule = greedy_buffer_order(
            self.n_partitions, self.buffer_partitions
        )
        return schedule.total_loads

    def run(self, dataset: Dataset, dim: int = 32) -> ExternalSystemResult:
        feature_bytes = dataset.n_nodes * dim * 8.0
        partition_bytes = feature_bytes / self.n_partitions
        edge_bytes = 2.0 * dataset.n_edges * 12.0
        # Per epoch: swap reads, updated-embedding write-back, edge scan.
        io_per_epoch = (
            self.swaps_per_epoch() * partition_bytes
            + feature_bytes
            + edge_bytes
        )
        io_seconds = self.epochs * self._ssd_seq_read(io_per_epoch)
        gpu_flop = (
            self.epochs * 2.0 * dataset.n_edges * dim * self.hidden_dim * 4.0
        )
        gpu_seconds = gpu_flop / self.gpu_flops
        return ExternalSystemResult(
            system=self.name,
            dataset=dataset.name,
            status="ok",
            sim_seconds=io_seconds + gpu_seconds,
        )


class DistDGLSimulator(_BaseSimulator):
    """DistDGL (IA3'20): 4-machine distributed GNN training.

    The paper attributes ~80% of DistDGL's runtime to graph sampling and
    the rest mostly to gradient synchronization.  Remote neighbor
    lookups and feature pulls cross the 25 GbE link with probability
    ``(machines-1)/machines`` under random partitioning.
    """

    name = "DistDGL"

    def __init__(
        self,
        machines: int = 4,
        epochs: int = 10,
        batch_size: int = 1024,
        fanouts: tuple[int, ...] = (15, 10, 5),
        sample_batches: int = 4,
        seed: int = 0,
        **kwargs: object,
    ) -> None:
        super().__init__(**kwargs)
        self.machines = machines
        self.epochs = epochs
        self.batch_size = batch_size
        self.fanouts = fanouts
        self.sample_batches = sample_batches
        self.seed = seed

    def run(self, dataset: Dataset, dim: int = 32) -> ExternalSystemResult:
        adjacency = dataset.adjacency_csr()
        sampler = NeighborSampler(adjacency, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        n = dataset.n_nodes
        touched_counts: list[int] = []
        edge_counts: list[int] = []
        for _ in range(self.sample_batches):
            batch = rng.choice(n, size=min(self.batch_size, n), replace=False)
            touched, n_edges = sampler.sample_minibatch(batch, self.fanouts)
            touched_counts.append(len(touched))
            edge_counts.append(n_edges)
        batches_per_epoch = max(1, -(-n // self.batch_size))
        # Remote share measured from the actual hash partitioning DistDGL
        # defaults to, not assumed.
        from repro.graphs.partition import edge_cut_fraction, hash_partition

        assignment = hash_partition(n, self.machines, seed=self.seed)
        remote_share = edge_cut_fraction(dataset.edges, assignment)
        # Sampling RPCs + feature pulls over the network, parallel across
        # machines but serialized within a batch (synchronous training).
        feature_bytes_per_batch = (
            float(np.mean(touched_counts)) * dim * 8.0 * remote_share
        )
        sample_rpc_bytes_per_batch = float(np.mean(edge_counts)) * 16.0 * remote_share
        per_batch_net = self._net_transfer(
            feature_bytes_per_batch + sample_rpc_bytes_per_batch
        )
        sampling_ops = float(np.mean(edge_counts)) * 60.0
        per_batch_sample = self.cost_model.compute_time(sampling_ops)
        # Gradient all-reduce per batch.
        grad_bytes = dim * dim * 8.0 * 4.0
        per_batch_sync = self._net_transfer(grad_bytes) * np.log2(self.machines)
        per_epoch = batches_per_epoch * (
            per_batch_net + per_batch_sample + per_batch_sync
        )
        return ExternalSystemResult(
            system=self.name,
            dataset=dataset.name,
            status="ok",
            sim_seconds=self.epochs * per_epoch / 1.0,
        )


class DistGERSimulator(_BaseSimulator):
    """DistGER (VLDB'23): distributed information-oriented random walks.

    DistGER generates an effectiveness-truncated walk corpus and trains
    SGNS over it, partitioned across 4 machines.  Its walks are ~40%
    shorter than DeepWalk's for equal quality (information-oriented
    truncation), which is why it is competitive with OMeGa on large
    graphs.
    """

    name = "DistGER"

    def __init__(
        self,
        machines: int = 4,
        walks_per_node: int = 10,
        walk_length: int = 80,
        truncation: float = 0.6,
        window: int = 5,
        negatives: int = 5,
        threads_per_machine: int = 30,
        seed: int = 0,
        **kwargs: object,
    ) -> None:
        super().__init__(**kwargs)
        self.machines = machines
        self.walks_per_node = walks_per_node
        self.walk_length = walk_length
        self.truncation = truncation
        self.window = window
        self.negatives = negatives
        self.threads_per_machine = threads_per_machine
        self.seed = seed

    def run(self, dataset: Dataset, dim: int = 32) -> ExternalSystemResult:
        adjacency = dataset.adjacency_csr()
        walker = RandomWalker(adjacency, seed=self.seed)
        corpus_steps = walker.corpus_size(
            self.walks_per_node, int(self.walk_length * self.truncation)
        )
        total_threads = self.machines * self.threads_per_machine
        # Walk generation: one random DRAM access per step.
        dram = self.topology.device(MemoryKind.DRAM)
        walk_seconds = self.cost_model.access_time(
            dram,
            Operation.READ,
            AccessPattern.RANDOM,
            Locality.LOCAL,
            corpus_steps * 64.0,
            threads_sharing=self.threads_per_machine,
        ) / self.machines
        # SGNS training: window * (1 + negatives) dot-products per step.
        train_macs = (
            corpus_steps * self.window * (1 + self.negatives) * dim * 2.0
        )
        train_seconds = self.cost_model.compute_time(train_macs / total_threads)
        # Partition-boundary message exchange.
        net_seconds = self._net_transfer(corpus_steps * 8.0 / self.machines)
        return ExternalSystemResult(
            system=self.name,
            dataset=dataset.name,
            status="ok",
            sim_seconds=walk_seconds + train_seconds + net_seconds,
        )


class SEMSpMMSimulator(_BaseSimulator):
    """SEM-SpMM (TPDS'17): semi-external SpMM — sparse on SSD, dense in RAM.

    One SpMM streams the sparse matrix from the SSD (sequential) while
    gathering dense rows in memory; the SSD stream is the bottleneck on
    every graph larger than the page cache.
    """

    name = "SEM-SpMM"

    def __init__(
        self, threads: int = 30, panel_dim: int = 8, **kwargs: object
    ) -> None:
        super().__init__(**kwargs)
        self.threads = threads
        if panel_dim < 1:
            raise ValueError(f"panel_dim must be >= 1, got {panel_dim}")
        self.panel_dim = panel_dim

    def spmm_seconds(self, nnz: int, n_nodes: int, dim: int = 32) -> float:
        """Time of one SpMM with the given sparse population.

        Semi-external execution processes the dense operand in column
        panels of ``panel_dim`` to bound the in-memory footprint,
        re-streaming the SSD-resident sparse matrix once per panel.
        """
        n_passes = max(1, -(-dim // self.panel_dim))
        sparse_bytes = float(nnz) * SPARSE_BYTES_PER_NNZ * n_passes
        io_seconds = self._ssd_seq_read(sparse_bytes)
        dram = self.topology.device(MemoryKind.DRAM)
        gather_seconds = self.cost_model.entropy_access_time(
            dram,
            Locality.LOCAL,
            float(nnz) * dim * 8.0,
            z_entropy=0.85,
            threads_sharing=self.threads,
        ) / self.threads
        compute_seconds = self.cost_model.compute_time(
            float(nnz) * dim / self.threads
        )
        return io_seconds + gather_seconds + compute_seconds

    def run(self, dataset: Dataset, dim: int = 32) -> ExternalSystemResult:
        nnz = 2 * dataset.n_edges
        return ExternalSystemResult(
            system=self.name,
            dataset=dataset.name,
            status="ok",
            sim_seconds=self.spmm_seconds(nnz, dataset.n_nodes, dim),
        )


class FusedMMSimulator(_BaseSimulator):
    """FusedMM (IPDPS'21): fused in-memory SpMM/SDDMM kernels.

    FusedMM is a DRAM-resident CSR kernel without degree-aware
    scheduling or NUMA placement; we run it as an engine configuration
    (DRAM-only, round-robin threads, first-touch Local placement) with a
    fused-kernel discount on the accumulate pass.  Like the original, it
    OOMs when the working set exceeds DRAM (Twitter-2010 in the paper).
    """

    name = "FusedMM"

    def __init__(
        self,
        threads: int = 30,
        fusion_discount: float = 0.85,
        **kwargs: object,
    ) -> None:
        super().__init__(**kwargs)
        self.threads = threads
        if not 0.0 < fusion_discount <= 1.0:
            raise ValueError(
                f"fusion_discount must be in (0, 1], got {fusion_discount}"
            )
        self.fusion_discount = fusion_discount

    def _engine(self, capacity_scale: int) -> SpMMEngine:
        config = OMeGaConfig(
            n_threads=self.threads,
            memory_mode=MemoryMode.DRAM_ONLY,
            allocation=AllocationScheme.NATURAL_ROUND_ROBIN,
            placement=PlacementScheme.LOCAL,
            prefetcher_enabled=False,
            streaming_enabled=False,
            # General-purpose CSR kernel vs OMeGa's degree-blocked CSDB
            # loop; partially recovered by the fusion discount below.
            kernel_slowdown=2.0,
            capacity_scale=capacity_scale,
            topology=self.topology,
        )
        return SpMMEngine(config, cost_model=self.cost_model)

    def spmm_result(self, dataset: Dataset, dim: int = 32):
        """One engine SpMM under the FusedMM configuration."""
        engine = self._engine(dataset.scale)
        matrix = dataset.adjacency_csdb()
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((dataset.n_nodes, dim))
        return engine.multiply(matrix, dense, compute=False)

    def run(self, dataset: Dataset, dim: int = 32) -> ExternalSystemResult:
        try:
            result = self.spmm_result(dataset, dim)
        except CapacityError:
            return ExternalSystemResult(
                system=self.name,
                dataset=dataset.name,
                status="oom",
                sim_seconds=float("nan"),
            )
        return ExternalSystemResult(
            system=self.name,
            dataset=dataset.name,
            status="ok",
            sim_seconds=result.sim_seconds * self.fusion_discount,
        )
