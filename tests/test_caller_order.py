"""A serial product of every row lands in the caller's row order.

``CSDBMatrix.spmm_rows(dense, 0, n_rows, caller_order=True)`` is the
product the serial executor and ``CSDBMatrix.spmm`` hand back.  Until the
relayout pays back it is the kernel view's product plus one gather; after
that it is the caller-order view's product, with no gather.  Pinned here:

- either way it equals ``to_original_order(spmm_rows(...))`` byte for
  byte, over empty rows, float32 values, asymmetric transposes,
  ``mark_mutated`` siblings and 1-D / (n, 1) / (n, d) operands;
- siblings share one pattern index, and the view keeps at most 12 B per
  non-zero and 4 B per row beyond the CSDB arrays;
- once the view is built, a serial engine multiply gathers nothing and
  holds one n x d buffer.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExecBackend, OMeGaConfig, ParallelConfig, SpMMEngine
from repro.formats import CSDBMatrix, edges_to_csdb
from repro.formats.csdb import (
    RELAYOUT_COST_PER_KEPT_BYTE,
    RELAYOUT_FIXED_COST,
    RELAYOUT_MIN_WIDTH,
)
from repro.graphs import rmat_edges

#: A wide operand: one gathered product of it outweighs most relayouts.
WIDE = 64


def gathered(matrix: CSDBMatrix, dense) -> np.ndarray:
    """The reference: the kernel view's product and one gather."""
    return matrix.to_original_order(
        matrix.spmm_rows(dense, 0, matrix.n_rows)
    )


def caller(matrix: CSDBMatrix, dense) -> np.ndarray:
    return matrix.spmm_rows(dense, 0, matrix.n_rows, caller_order=True)


def relay(matrix: CSDBMatrix):
    """Build the caller-order view now, as if past gathers had paid for
    it (one caller-order product); returns it."""
    matrix._relayout_due = -1
    caller(matrix, np.ones(matrix.n_cols, dtype=matrix.dtype))
    return matrix._caller_view


def assert_bytes_equal(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def assert_within_budget(matrix: CSDBMatrix, view) -> None:
    assert view.indices.dtype == np.int32 and view.indptr.dtype == np.int32
    assert view.data.nbytes + view.indices.nbytes <= 12 * matrix.nnz
    assert view.indptr.nbytes == 4 * (matrix.n_rows + 1)


@st.composite
def matrices(draw):
    """Small matrices with empty rows, either value dtype, and maybe
    an asymmetric transpose of one."""
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 10))
    entry = st.tuples(
        st.integers(0, n_rows - 1),
        st.integers(0, n_cols - 1),
        # Sums whose bits depend on the order of addition, and both zeros.
        st.sampled_from([1e16, -1e16, 1.0, 0.1, 0.2, 0.3, -0.0, 0.0, -2.5]),
    )
    entries = draw(st.lists(entry, max_size=30))
    rows, cols, vals = (
        (np.asarray(x) for x in zip(*entries)) if entries else ([],) * 3
    )
    matrix = CSDBMatrix.from_coo(
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(vals, dtype=np.float64),
        (n_rows, n_cols),
    )
    if draw(st.booleans()):
        matrix = matrix.transpose()
    if draw(st.booleans()):
        matrix = matrix.with_values(matrix.nnz_list.astype(np.float32))
    return matrix


@st.composite
def operands(draw, n_cols: int):
    shape = draw(st.sampled_from(["vector", "column", "block"]))
    seed = draw(st.integers(0, 2**16))
    dense = np.random.default_rng(seed).standard_normal((n_cols, 3))
    if shape == "vector":
        return dense[:, 0]
    if shape == "column":
        return dense[:, :1]
    return dense


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_caller_order_equals_the_gathered_product(data):
    matrix = data.draw(matrices())
    dense = data.draw(operands(matrix.n_cols))
    expected = gathered(matrix, dense)
    assert_bytes_equal(caller(matrix, dense), expected)  # before the view
    view = relay(matrix)
    assert view is not None
    assert_bytes_equal(caller(matrix, dense), expected)
    assert_bytes_equal(matrix.spmm(dense), expected)
    assert_within_budget(matrix, view)

    # A sibling shares the pattern's index and gathers its own values.
    values = np.random.default_rng(1).standard_normal(matrix.nnz)
    sibling = matrix.with_values(values.astype(matrix.dtype))
    sibling_view = relay(sibling)
    assert np.shares_memory(sibling_view.indptr, view.indptr)
    if matrix.nnz:
        assert np.shares_memory(sibling_view.indices, view.indices)
    assert_bytes_equal(caller(sibling, dense), gathered(sibling, dense))

    # A value write then mark_mutated: the stale copy goes, and the
    # fresh pattern builds its own index.
    sibling.nnz_list[:] = -sibling.nnz_list
    sibling.mark_mutated()
    assert_bytes_equal(caller(sibling, dense), gathered(sibling, dense))
    fresh = relay(sibling)
    assert not np.shares_memory(fresh.indices, view.indices)
    assert_bytes_equal(caller(sibling, dense), gathered(sibling, dense))
    # The matrix it left keeps its own view and values.
    assert matrix._caller_view is view
    assert_bytes_equal(caller(matrix, dense), expected)


def test_a_caller_order_product_covers_every_row():
    matrix = edges_to_csdb(rmat_edges(6, edge_factor=4.0, seed=2), 1 << 6)
    with pytest.raises(ValueError, match="covers every row"):
        matrix.spmm_rows(np.ones((matrix.n_cols, 2)), 0, 3, caller_order=True)


@pytest.fixture(scope="module")
def rmat() -> CSDBMatrix:
    return edges_to_csdb(rmat_edges(11, edge_factor=8.0, seed=4), 1 << 11)


@pytest.mark.parametrize("sibling", (False, True))
def test_the_view_is_built_once_the_gathers_cost_a_relayout(rmat, sibling):
    matrix = rmat.with_values(rmat.nnz_list.copy())
    matrix.mark_mutated()  # a pattern with no index yet
    if sibling:
        relay(matrix)
        matrix = matrix.with_values(matrix.nnz_list * 2.0)
    # A sibling is charged the index too: its build indexes the rows
    # again, though it keeps the pattern's index.
    kept = 8 * matrix.nnz + 4 * (matrix.nnz + matrix.n_rows + 1)
    cost = RELAYOUT_COST_PER_KEPT_BYTE * kept + RELAYOUT_FIXED_COST
    wide = np.ones((matrix.n_cols, WIDE))
    product_bytes = matrix.n_rows * WIDE * 8
    gathers = cost // product_bytes + 1  # the first that outweigh it
    assert gathers >= 2
    for _ in range(gathers):
        caller(matrix, wide)
        assert matrix._caller_view is None
    caller(matrix, wide)
    assert matrix._caller_view is not None


def test_narrow_products_never_build_a_view(rmat):
    matrix = rmat.with_values(rmat.nnz_list.copy())
    due = matrix._relayout_due
    narrow = np.ones((matrix.n_cols, RELAYOUT_MIN_WIDTH - 1))
    for dense in (narrow, narrow[:, 0], narrow[:, :1]):
        for _ in range(50):
            caller(matrix, dense)
    assert matrix._caller_view is None
    assert matrix._relayout_due == due


def test_a_tsvd_sized_run_of_products_builds_no_view(rmat):
    # Three products at d = 40, as an embed's tSVD multiplies F and F^T.
    matrix = rmat.with_values(rmat.nnz_list.copy())
    dense = np.ones((matrix.n_cols, 40))
    for _ in range(3):
        caller(matrix, dense)
    assert matrix._caller_view is None


def test_the_view_keeps_at_most_12_bytes_per_nnz(rmat):
    matrix = rmat.with_values(rmat.nnz_list.copy())
    matrix.mark_mutated()  # a pattern with no index yet
    dense = np.ones((matrix.n_cols, WIDE))
    caller(matrix, dense)  # caches inv_perm and the kernel view
    matrix._relayout_due = -1  # as if past gathers paid for it
    tracemalloc.start()
    try:
        caller(matrix, dense)  # builds the view; the product is dropped
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix._caller_view is not None
    # No nnz-sized int64 array outlives the build.
    assert kept <= 12 * matrix.nnz + 4 * (matrix.n_rows + 1) + 4096


def test_a_relaid_serial_multiply_gathers_nothing_into_one_buffer(
    rmat, monkeypatch
):
    engine = SpMMEngine(
        OMeGaConfig(
            n_threads=8, parallel=ParallelConfig(backend=ExecBackend.SIMULATED)
        )
    )
    dense = np.random.default_rng(7).standard_normal((rmat.n_cols, WIDE))
    matrix = rmat.with_values(rmat.nnz_list.copy())
    expected = gathered(matrix, dense)
    for _ in range(8):  # the gathers soon pay for a relayout
        engine.multiply(matrix, dense)
    assert matrix._caller_view is not None
    gathers = []
    original = CSDBMatrix.to_original_order

    def counted(self, *args, **kwargs):
        gathers.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CSDBMatrix, "to_original_order", counted)
    tracemalloc.start()
    try:
        output = engine.multiply(matrix, dense).output
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gathers == []
    assert_bytes_equal(output, expected)
    # The product is the result: one n x d buffer, not two.
    assert peak < 1.5 * output.nbytes
