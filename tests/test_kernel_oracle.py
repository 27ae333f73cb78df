"""Differential oracle for the SpMM kernel across every executor.

One check, many inputs: for a CSDB matrix, a dense operand and a set of
disjoint CSDB row ranges, every executor (serial, shared-memory and
threads at 1/2/4 workers) must

(i)   equal a scalar sequential reference *bit for bit* — the kernel's
      accumulation contract (each row: zero, then ``+= value * B[col]``
      in ``col_list`` order, one rounding per multiply and per add);
(ii)  be ``allclose`` to ``csdb_to_scipy(A) @ B`` on the covered rows;
(iii) leave every row outside the ranges reading exactly 0, and no row
      reading NaN, even though the caller's buffer arrives filled with
      NaN and a backend zero-fills only when a row is uncovered;
(iv)  compute in the matrix's value dtype: a float32-valued matrix (the
      propagation half's operators) gives float32 products, equal across
      executors, and its scalar reference accumulates in float32.

(i) holds on builds of scipy whose CSR kernel does not contract
``y += a * x`` into a fused multiply-add (the x86-64 wheels); equality
*between* executors never depends on that.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OMeGaConfig, OMeGaEmbedder
from repro.core.config import ExecBackend, ParallelConfig
from repro.formats import CSDBMatrix, csdb_to_scipy, edges_to_csdb
from repro.graphs import rmat_edges
from repro.parallel import (
    SimulatedExecutor,
    get_shared_executor,
    get_threads_executor,
    shutdown_shared_executors,
    shutdown_threads_executors,
)
from repro.prone import prone_embed
from repro.prone.model import ProNEParams

WORKERS = (1, 2, 4)


@pytest.fixture(scope="module", autouse=True)
def _close_pools():
    yield
    shutdown_shared_executors()
    shutdown_threads_executors()


def _executors():
    """(label, executor)."""
    yield "serial", SimulatedExecutor()
    for n in WORKERS:
        yield f"shared_memory x{n}", get_shared_executor(n)
        yield f"threads x{n}", get_threads_executor(n)


def scalar_reference(matrix, dense, ranges):
    """The accumulation contract, spelled out one non-zero at a time,
    in the matrix's value dtype."""
    dense = np.asarray(dense, dtype=matrix.dtype)
    prefix = matrix.nnz_prefix()
    out = np.zeros((matrix.n_rows, dense.shape[1]), dtype=matrix.dtype)
    for row_start, row_end in ranges:
        for row in range(row_start, row_end):
            acc = np.zeros(dense.shape[1], dtype=matrix.dtype)
            for k in range(prefix[row], prefix[row + 1]):
                acc = acc + matrix.nnz_list[k] * dense[matrix.col_list[k]]
            out[matrix.perm[row]] = acc
    return out


def check_all_executors(matrix, dense, ranges):
    expected = scalar_reference(matrix, dense, ranges)
    covered = np.zeros(matrix.n_rows, dtype=bool)
    for row_start, row_end in ranges:
        covered[matrix.perm[row_start:row_end]] = True
    product = csdb_to_scipy(matrix) @ np.asarray(dense, dtype=np.float64)
    # float32 sums of up to a few hundred terms of size ~1.
    tolerance = {}
    if matrix.dtype == np.float32:
        tolerance = {"rtol": 1e-4, "atol": 1e-4}
    first = None
    for label, executor in _executors():
        out = executor.run_partitions(matrix, dense, ranges)
        first = out if first is None else first
        assert np.array_equal(out, first), label
        assert np.array_equal(out, expected), label
        assert np.allclose(out[covered], product[covered], **tolerance), label
        assert not out[~covered].any(), label


def _with_values_dtype(matrix, values):
    """The matrix with its values in ``values`` ("float64" or "float32")."""
    if values == "float64":
        return matrix
    cast = matrix.with_values(matrix.nnz_list.astype(np.float32))
    assert cast.dtype == np.float32
    return cast


VALUES = ("float64", "float32")


def _layout(dense, layout):
    """The same values in an operand layout the kernel must not trip on."""
    if layout == "fortran":
        return np.asfortranarray(dense)
    if layout == "column_slice":
        wide = np.repeat(dense, 2, axis=1)
        wide[:, 1::2] = -1.0
        return wide[:, ::2]
    if layout == "float32":
        return dense.astype(np.float32)
    return dense


LAYOUTS = ("c", "fortran", "column_slice", "float32")


def _from_coo(rows, cols, vals, shape):
    return CSDBMatrix.from_coo(
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(vals, dtype=np.float64),
        shape,
    )


def _weighted_rmat():
    """Hub rows with hundreds of real-valued terms: where pairwise and
    sequential summation part ways in the last bits."""
    matrix = edges_to_csdb(rmat_edges(8, edge_factor=8.0, seed=5), 1 << 8)
    matrix.nnz_list[:] = np.random.default_rng(5).standard_normal(matrix.nnz)
    return matrix


#: name -> (matrix, d, ranges); ranges of None means thirds of the rows.
DEGENERATE = {
    "weighted_rmat": lambda: (_weighted_rmat(), 8, None),
    "empty_rows": lambda: (
        _from_coo([0, 0, 5], [1, 2, 0], [1.5, -2.0, 3.0], (9, 4)), 3, None
    ),
    "dense_hub_row": lambda: (
        _from_coo(
            [3] * 40 + [0, 7],
            list(range(40)) + [1, 2],
            np.linspace(-1.0, 1.0, 42),
            (8, 40),
        ),
        5,
        [(0, 1), (1, 8)],
    ),
    "d_equals_1": lambda: (_weighted_rmat(), 1, None),
    "duplicate_coo_entries": lambda: (
        _from_coo([2, 2, 2, 0], [1, 1, 1, 3], [0.1, 0.2, 0.3, 1.0], (4, 4)),
        2,
        None,
    ),
    # Rows are degree-sorted, so the tail range owns no non-zero at all.
    "all_zero_partition": lambda: (
        _from_coo([0, 1], [0, 1], [2.0, 3.0], (10, 2)), 2, [(0, 2), (2, 10)]
    ),
    "empty_range": lambda: (
        _weighted_rmat(), 4, [(0, 0), (0, 17), (17, 17), (40, 256)]
    ),
    "no_nonzeros": lambda: (_from_coo([], [], [], (5, 3)), 2, None),
    # What the engine hands over: adjacent ranges covering every row,
    # which no backend zero-fills for (the shared-memory pool's scratch
    # segment still holds the previous case's rows at that point).
    "full_cover_single_range": lambda: (_weighted_rmat(), 3, [(0, 256)]),
    "full_cover_eight_ranges": lambda: (
        _weighted_rmat(), 3, [(i, i + 32) for i in range(0, 256, 32)]
    ),
    "full_cover_out_of_order": lambda: (
        _weighted_rmat(), 3, [(128, 256), (0, 128)]
    ),
}


def check_degenerate(case, layout, values):
    matrix, d, ranges = DEGENERATE[case]()
    if ranges is None:
        cuts = np.linspace(0, matrix.n_rows, 4).astype(int)
        ranges = list(zip(cuts[:-1].tolist(), cuts[1:].tolist()))
    dense = np.random.default_rng(d).standard_normal((matrix.n_cols, d))
    check_all_executors(
        _with_values_dtype(matrix, values), _layout(dense, layout), ranges
    )


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_shapes(case, layout):
    check_degenerate(case, layout, "float64")


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_shapes_float32_values(case, layout):
    check_degenerate(case, layout, "float32")


@st.composite
def kernel_inputs(draw):
    n_rows = draw(st.integers(1, 16))
    n_cols = draw(st.integers(1, 12))
    entry = st.tuples(
        st.integers(0, n_rows - 1),
        st.integers(0, n_cols - 1),
        st.floats(-4, 4, allow_nan=False, width=64),
    )
    entries = draw(st.lists(entry, max_size=48))  # duplicates welcome
    if draw(st.booleans()):  # one fully dense hub row
        hub = draw(st.integers(0, n_rows - 1))
        entries += [(hub, col, 0.5 + col) for col in range(n_cols)]
    rows, cols, vals = (list(x) for x in zip(*entries)) if entries else ([],) * 3
    matrix = _with_values_dtype(
        _from_coo(rows, cols, vals, (n_rows, n_cols)),
        draw(st.sampled_from(VALUES)),
    )
    d = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    dense = np.random.default_rng(seed).standard_normal((n_cols, d))
    # Sorted cut points: repeats give empty ranges; dropping a range
    # leaves rows no partition covers.
    cuts = sorted(draw(st.lists(st.integers(0, n_rows), max_size=5)))
    bounds = [0, *cuts, n_rows]
    ranges = [
        pair
        for pair in zip(bounds[:-1], bounds[1:])
        if draw(st.integers(0, 4)) > 0
    ]
    return matrix, _layout(dense, draw(st.sampled_from(LAYOUTS))), ranges


@settings(max_examples=30, deadline=None)
@given(kernel_inputs())
def test_property_every_executor_matches_the_scalar_reference(inputs):
    check_all_executors(*inputs)


@pytest.mark.parametrize(
    "backend",
    [ExecBackend.SIMULATED, ExecBackend.THREADS, ExecBackend.SHARED_MEMORY],
)
def test_engine_embed_is_byte_equal_to_prone_embed(backend):
    """Float32 propagation operands and float64 tSVD operands go through
    every backend (each keeps the matrix's dtype) to the plain pipeline's
    bytes."""
    edges = rmat_edges(9, edge_factor=8.0, seed=3)
    adjacency = edges_to_csdb(edges, 1 << 9)
    config = OMeGaConfig(
        n_threads=4,
        dim=8,
        parallel=ParallelConfig(backend=backend, n_workers=2),
    )
    result = OMeGaEmbedder(config).embed(adjacency)
    reference = prone_embed(adjacency, ProNEParams(dim=8, seed=config.seed))
    assert result.embedding.dtype == reference.dtype == np.float64
    assert result.embedding.tobytes() == reference.tobytes()
