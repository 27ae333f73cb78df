"""Engine-level CSDB operator suite (§III-A).

The paper equips CSDB with "multiplication, addition, subtraction, and
transposition" operators so the embedding pipeline never leaves the
compressed format.  :class:`OperatorSuite` wraps those operators with the
same simulated-cost accounting as the SpMM engine, so pipeline-level
experiments can charge *every* matrix operation, not only SpMM:

- ``spmm``  — delegates to the instrumented engine (Algorithm 1);
- ``sddmm`` — sampled dense-dense multiplication, the second kernel of
  graph embedding workloads (the one FusedMM fuses with SpMM);
- ``add`` / ``subtract`` — streaming merges of two CSDB operands;
- ``transpose`` — a full re-blocking pass (counting sort by degree).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MemoryMode, OMeGaConfig
from repro.core.spmm import SPARSE_BYTES_PER_NNZ, SpMMEngine, SpMMResult
from repro.formats.csdb import CSDBMatrix
from repro.memsim.devices import (
    AccessPattern,
    Locality,
    MemoryKind,
    Operation,
)
from repro.memsim.trace import CostTrace


@dataclass
class OperatorResult:
    """Outcome of a non-SpMM CSDB operator.

    Attributes:
        output: the resulting matrix (CSDB) or array.
        sim_seconds: simulated duration of the operator.
        trace: per-category simulated cost ledger.
    """

    output: object
    sim_seconds: float
    trace: CostTrace


class OperatorSuite:
    """Cost-accounted CSDB operators on the simulated memory system."""

    def __init__(self, config: OMeGaConfig | None = None) -> None:
        self.config = config or OMeGaConfig()
        self.engine = SpMMEngine(self.config)

    # -- helpers ------------------------------------------------------------

    def _sparse_device(self):
        if self.config.memory_mode is MemoryMode.DRAM_ONLY:
            return self.config.topology.device(MemoryKind.DRAM)
        return self.config.topology.device(MemoryKind.PM)

    def _stream_cost(
        self, read_bytes: float, write_bytes: float, compute_ops: float
    ) -> float:
        """Simulated seconds of a parallel streaming pass."""
        device = self._sparse_device()
        threads = self.config.n_threads
        sharing = max(1, threads // self.config.topology.n_sockets)
        model = self.engine.cost_model
        read = model.access_time(
            device,
            Operation.READ,
            AccessPattern.SEQUENTIAL,
            Locality.LOCAL,
            read_bytes / threads,
            sharing,
        )
        write = model.access_time(
            device,
            Operation.WRITE,
            AccessPattern.SEQUENTIAL,
            Locality.LOCAL,
            write_bytes / threads,
            sharing,
        )
        compute = model.compute_time(compute_ops / threads)
        return read + write + compute

    # -- operators ----------------------------------------------------------

    def spmm(self, matrix: CSDBMatrix, dense: np.ndarray) -> SpMMResult:
        """Instrumented sparse x dense multiplication (Algorithm 1)."""
        return self.engine.multiply(matrix, dense)

    def sddmm(
        self,
        matrix: CSDBMatrix,
        left: np.ndarray,
        right: np.ndarray,
    ) -> OperatorResult:
        """Sampled dense-dense matrix multiplication.

        Computes ``C_ij = A_ij * (left_i . right_j)`` over A's sparsity
        pattern — the companion kernel of SpMM in embedding training
        (FusedMM's fusion target).  Returns a CSDB matrix with A's
        structure and the sampled products as values.
        """
        left = np.asarray(left, dtype=np.float64)
        right = np.asarray(right, dtype=np.float64)
        if left.shape[0] != matrix.n_rows:
            raise ValueError(
                f"left must have {matrix.n_rows} rows, got {left.shape[0]}"
            )
        if right.shape[0] != matrix.n_cols:
            raise ValueError(
                f"right must have {matrix.n_cols} rows, got {right.shape[0]}"
            )
        if left.shape[1] != right.shape[1]:
            raise ValueError(
                f"factor widths differ: {left.shape[1]} vs {right.shape[1]}"
            )
        dots = np.einsum(
            "ij,ij->i", left[matrix.nnz_row_ids()], right[matrix.col_list]
        )
        output = matrix.with_values(matrix.nnz_list * dots)
        d = left.shape[1]
        nnz = matrix.nnz
        seconds = self._stream_cost(
            read_bytes=nnz * (SPARSE_BYTES_PER_NNZ + 2.0 * d * 8.0),
            write_bytes=nnz * 8.0,
            compute_ops=float(nnz) * d,
        )
        trace = CostTrace()
        trace.charge("sddmm", seconds, nnz * 2.0 * d * 8.0)
        return OperatorResult(output=output, sim_seconds=seconds, trace=trace)

    def add(self, a: CSDBMatrix, b: CSDBMatrix) -> OperatorResult:
        """Cost-accounted ``a + b``."""
        return self._merge(a, b, sign=1.0, label="add")

    def subtract(self, a: CSDBMatrix, b: CSDBMatrix) -> OperatorResult:
        """Cost-accounted ``a - b``."""
        return self._merge(a, b, sign=-1.0, label="subtract")

    def _merge(
        self, a: CSDBMatrix, b: CSDBMatrix, sign: float, label: str
    ) -> OperatorResult:
        output = a + b if sign > 0 else a - b
        read_bytes = (a.nnz + b.nnz) * SPARSE_BYTES_PER_NNZ
        write_bytes = output.nnz * SPARSE_BYTES_PER_NNZ
        # Merge of two sorted streams: ~4 ops per input element plus the
        # re-blocking of the result.
        ops = 4.0 * (a.nnz + b.nnz) + 8.0 * output.n_rows
        seconds = self._stream_cost(read_bytes, write_bytes, ops)
        trace = CostTrace()
        trace.charge(label, seconds, read_bytes + write_bytes)
        return OperatorResult(output=output, sim_seconds=seconds, trace=trace)

    def transpose(self, matrix: CSDBMatrix) -> OperatorResult:
        """Cost-accounted transposition (counting-sort re-blocking)."""
        output = matrix.transpose()
        read_bytes = matrix.nnz * SPARSE_BYTES_PER_NNZ
        write_bytes = output.nnz * SPARSE_BYTES_PER_NNZ
        ops = 6.0 * matrix.nnz + 8.0 * matrix.n_cols
        seconds = self._stream_cost(read_bytes, write_bytes, ops)
        trace = CostTrace()
        trace.charge("transpose", seconds, read_bytes + write_bytes)
        return OperatorResult(output=output, sim_seconds=seconds, trace=trace)

    def scale(self, matrix: CSDBMatrix, factor: float) -> OperatorResult:
        """Cost-accounted scalar multiplication."""
        output = matrix.scale(factor)
        nbytes = matrix.nnz * 8.0
        seconds = self._stream_cost(nbytes, nbytes, float(matrix.nnz))
        trace = CostTrace()
        trace.charge("scale", seconds, 2 * nbytes)
        return OperatorResult(output=output, sim_seconds=seconds, trace=trace)
