"""Pattern-only work happens once per sparsity pattern — and changes no bit.

Three places on the embed path used to redo work that depends only on a
matrix's sparsity pattern; each is pinned here against the formulation it
replaced, kept below as the oracle:

- ``CSRMatrix.from_coo``: stable 16-bit radix passes, columns then rows,
  vs. the former ``np.lexsort`` + two ``np.add.at`` passes (and
  ``CSDBMatrix.to_csr`` / ``CSRMatrix.prune``, which no longer re-sort
  ordered data, vs. their ``from_coo`` formulations);
- ``chebyshev_operator``: a value-only update on the blocks of ``A + I``
  vs. the former second ``from_coo`` of ``(-DA, (1-mu)I)``;
- ``SpMMEngine``: EaTA partitions and WoFP plans kept per live sparsity
  pattern (``with_values`` siblings share one), with simulated cost and
  metrics still charged on every call;
- ``add_identity``: the diagonal scattered into the ordered rows vs. the
  former ``from_coo`` of entries + diagonal; ``transpose`` of a symmetric
  pattern: a value-sibling vs. the ``from_coo`` of the swapped
  coordinates; ``a +- b``: a merge of two ordered operands vs. the
  ``from_coo`` of their concatenation.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import OMeGaConfig, OMeGaEmbedder, SpMMEngine
from repro.core.eata import EntropyAwareAllocator
from repro.formats import CSDBMatrix, CSRMatrix, edges_to_csdb, edges_to_csr
from repro.graphs import rmat_edges
from repro.obs.metrics import MetricsRegistry
from repro.prone.laplacian import (
    add_identity,
    chebyshev_operator,
    row_l1_normalize,
)

CSDB_ARRAYS = ("deg_list", "deg_ind", "col_list", "nnz_list", "perm")


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal dtype, shape and bytes (so -0.0 != 0.0, unlike ``==``)."""
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# -- CSRMatrix.from_coo ------------------------------------------------------


def lexsort_from_coo(rows, cols, vals, shape, sum_duplicates=True):
    """The formulation ``CSRMatrix.from_coo`` had before the fused key."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if sum_duplicates and len(rows):
        keep = np.empty(len(rows), dtype=bool)
        keep[0] = True
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        group = np.cumsum(keep) - 1
        summed = np.zeros(int(group[-1]) + 1, dtype=np.float64)
        np.add.at(summed, group, vals)
        rows, cols, vals = rows[keep], cols[keep], summed
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols, vals


#: Dimension sizes either side of the 16-bit digit boundary, and the
#: degenerate ones that need no radix pass at all.
DIGIT_EDGE_SIZES = [1, 2, 65_535, 65_536, 65_537]


@st.composite
def coo_inputs(draw):
    """Small COO inputs, dense enough that coordinates repeat."""
    sizes = st.one_of(st.integers(1, 5), st.sampled_from(DIGIT_EDGE_SIZES))
    n_rows, n_cols = draw(sizes), draw(sizes)

    def index(size):
        # A handful of ids per dimension, on both sides of every digit.
        return st.sampled_from(
            sorted({i for i in (0, 1, 2, 3, 4, 255, 256, 65_534, 65_535,
                                65_536, size - 1) if i < size})
        )

    entries = draw(
        st.lists(
            st.tuples(
                index(n_rows),
                index(n_cols),
                # Values whose sum depends on the order of addition, and
                # both zeros.
                st.sampled_from([1e16, -1e16, 1.0, 0.1, 0.2, 0.3, -0.0, 0.0]),
            ),
            max_size=40,
        )
    )
    rows = [entry[0] for entry in entries]
    cols = [entry[1] for entry in entries]
    vals = [entry[2] for entry in entries]
    return rows, cols, vals, (n_rows, n_cols), draw(st.booleans())


def argsort_from_csr(csr):
    """The five CSDB arrays, rows moved one by one in ``argsort`` order."""
    degrees = np.diff(csr.indptr)
    perm = np.argsort(-degrees, kind="stable").astype(np.int64)
    runs = [slice(csr.indptr[row], csr.indptr[row + 1]) for row in perm]
    deg_list, first = np.unique(-degrees[perm], return_index=True)
    return {
        "deg_list": -deg_list,
        "deg_ind": np.append(first, len(perm)).astype(np.int64),
        "col_list": np.concatenate([csr.indices[run] for run in runs]),
        "nnz_list": np.concatenate([csr.data[run] for run in runs]),
        "perm": perm,
    }


class TestFromCooMatchesLexsortFormulation:
    @given(coo_inputs())
    @example(([], [], [], (3, 4), True))  # empty input
    @example(([0, 0, 0], [2, 0, 2], [1.0, 2.0, 3.0], (1, 3), True))  # one row
    @example(([2, 0, 2, 1], [0, 0, 0, 0], [0.1, 0.2, 0.3, 0.4], (3, 1), True))
    @example(  # >= 3 duplicates of one coordinate, order-sensitive sum
        ([1, 0, 1, 1, 1], [1, 0, 1, 1, 1], [1e16, 5.0, 1.0, -1e16, 1.0], (2, 2), True)
    )
    @example(([1, 1, 0, 1], [1, 1, 0, 1], [3.0, 1.0, 2.0, 2.0], (2, 2), False))
    @example(([0, 1], [1, 0], [-0.0, -0.0], (2, 2), True))  # no duplicates
    @example(([0] * 4, [0] * 4, [1e16, 1.0, -1e16, 1.0], (1, 1), True))
    @example(([0] * 4, [0] * 4, [1e16, 1.0, -1e16, 1.0], (1, 1), False))
    @example(([1, 0, 1], [0, 0, 0], [-0.0, 1.0, 2.0], (2, 1), True))  # -0.0 alone
    @example(([1, 0, 1], [0, 0, 0], [-0.0, 1.0, 2.0], (2, 1), False))
    @example(  # ids that differ in the second 16-bit digit only
        ([65_536, 0, 65_536, 1], [1, 65_536, 0, 65_536], [1.0, 2.0, 3.0, 4.0],
         (65_537, 65_537), True)
    )
    @example(  # the widest shape the coordinate key allows: eight passes
        ([1, 0, 1], [2**62 - 2, 2**62 - 2, 0], [1.0, 2.0, 3.0], (2, 2**62 - 1), True)
    )
    @example(([], [], [], (0, 0), True))
    @example(([], [], [], (3, 0), True))
    @example(([], [], [], (0, 3), False))
    @settings(max_examples=300, deadline=None)
    def test_every_output_array_is_bit_equal(self, case):
        rows, cols, vals, shape, sum_duplicates = case
        built = CSRMatrix.from_coo(rows, cols, vals, shape, sum_duplicates)
        indptr, indices, data = lexsort_from_coo(
            rows, cols, vals, shape, sum_duplicates
        )
        assert_same_bits(built.indptr, indptr)
        assert_same_bits(built.indices, indices)
        assert_same_bits(built.data, data)

    def test_graph_builds_equal_the_oracle_build_on_an_rmat(self):
        edges = rmat_edges(9, edge_factor=8.0, seed=4)
        # Repeated edges and self-loops: duplicates to sum on both builds.
        loops = np.arange(0, 512, 7)
        edges = np.concatenate([edges, edges[:50], np.stack([loops, loops], 1)])
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        adjacency = edges_to_csdb(edges, 512)
        oracle = CSRMatrix(
            *lexsort_from_coo(src, dst, np.ones(len(src)), (512, 512)), (512, 512)
        )
        diag = np.arange(512)
        with_identity = CSRMatrix(
            *lexsort_from_coo(
                np.concatenate([src, diag]),
                np.concatenate([dst, diag]),
                np.ones(len(src) + 512),
                (512, 512),
            ),
            (512, 512),
        )
        for built, csr in (
            (adjacency, oracle),
            (add_identity(adjacency), with_identity),
        ):
            for name, expected in argsort_from_csr(csr).items():
                assert_same_bits(getattr(built, name), expected)

    def test_duplicates_sum_in_input_order(self):
        # (1e16 + 1) - 1e16 + 1 == 1 in float64; any other order gives 0 or 2.
        built = CSRMatrix.from_coo(
            [0] * 4, [0] * 4, [1e16, 1.0, -1e16, 1.0], (1, 1)
        )
        assert built.data.tolist() == [1.0]

    def test_shape_beyond_the_int64_key_is_rejected(self):
        with pytest.raises(ValueError, match=r"\(4294967296, 2147483648\)"):
            CSRMatrix.from_coo([0], [0], [1.0], (2**32, 2**31))
        # Just below the limit the key still orders correctly (the size
        # goes in n_cols: indptr has n_rows + 1 entries).
        built = CSRMatrix.from_coo(
            [1, 0, 1], [2**62 - 2, 2**62 - 2, 0], [1.0, 2.0, 3.0], (2, 2**62 - 1)
        )
        assert built.indptr.tolist() == [0, 1, 3]
        assert built.indices.tolist() == [2**62 - 2, 0, 2**62 - 2]
        assert built.data.tolist() == [2.0, 3.0, 1.0]


# -- builds over data that is already ordered ----------------------------------


def from_coo_to_csr(matrix: CSDBMatrix) -> CSRMatrix:
    """The formulation ``CSDBMatrix.to_csr`` had: every non-zero re-sorted."""
    return CSRMatrix.from_coo(
        matrix.nnz_row_ids(), matrix.col_list, matrix.nnz_list, matrix.shape,
        sum_duplicates=False,
    )


def from_coo_prune(matrix: CSRMatrix, tol: float) -> CSRMatrix:
    """The formulation ``CSRMatrix.prune`` had: mask, then a sorting build."""
    keep = np.abs(matrix.data) > tol
    return CSRMatrix.from_coo(
        matrix.nnz_row_ids()[keep], matrix.indices[keep], matrix.data[keep],
        matrix.shape, sum_duplicates=False,
    )


def assert_same_csr(actual: CSRMatrix, expected: CSRMatrix) -> None:
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        assert_same_bits(getattr(actual, name), getattr(expected, name))


def _ordered_build_cases():
    rng = np.random.default_rng(11)
    rows, cols = rng.integers(0, 30, 200), rng.integers(0, 20, 200)
    vals = rng.choice([1.0, -1.0, 0.25, -0.0, 0.0, 1e-9], 200)
    return {
        # Rows 30..39 are empty, and so are some of the first thirty.
        "empty_rows": CSRMatrix.from_coo(rows, cols, vals, (40, 20)),
        "no_nonzeros": CSRMatrix.from_coo([], [], [], (5, 4)),
        "no_rows": CSRMatrix.from_coo([], [], [], (0, 4)),
        "one_full_row": CSRMatrix.from_coo(
            [0] * 4, range(4), [1.0, 0.0, -0.0, 2.0], (1, 4)
        ),
        "skewed": edges_to_csr(rmat_edges(8, edge_factor=6.0, seed=2), 256),
    }


@pytest.mark.parametrize("name", list(_ordered_build_cases()))
class TestOrderedDataIsNotResorted:
    def test_to_csr_equals_the_from_coo_formulation(self, name):
        csr = _ordered_build_cases()[name]
        matrix = CSDBMatrix.from_csr(csr)
        assert_same_csr(matrix.to_csr(), from_coo_to_csr(matrix))
        assert_same_csr(matrix.to_csr(), csr)

    @pytest.mark.parametrize("tol", [0.0, 0.5, 10.0])
    def test_prune_equals_the_from_coo_formulation(self, name, tol):
        csr = _ordered_build_cases()[name]
        assert_same_csr(csr.prune(tol), from_coo_prune(csr, tol))

    def test_a_prune_that_removes_nothing_returns_the_matrix(self, name):
        csr = _ordered_build_cases()[name]
        kept = csr.prune()  # stored zeros go
        assert kept.prune() is kept
        assert (csr.prune() is csr) == bool((csr.data != 0).all())


# -- CSDBMatrix helpers ------------------------------------------------------


class TestWithValues:
    def test_shares_structure_and_carries_caches(self, skewed_csdb):
        skewed_csdb.inv_perm, skewed_csdb.col_degrees(), skewed_csdb.nnz_prefix()
        derived = skewed_csdb.with_values(np.arange(skewed_csdb.nnz))
        for name in ("deg_list", "deg_ind", "col_list", "perm"):
            assert getattr(derived, name) is getattr(skewed_csdb, name)
        assert derived.shape == skewed_csdb.shape
        assert derived.nnz_list.dtype == np.float64
        assert derived.nnz_list.tolist() == list(range(skewed_csdb.nnz))
        assert derived.pattern is skewed_csdb.pattern
        for cache in ("inv_perm", "row_degrees", "nnz_prefix", "col_degrees"):
            assert getattr(derived.pattern, cache) is not None

    def test_a_cache_filled_through_one_sibling_is_seen_by_the_others(self):
        matrix = edges_to_csdb(rmat_edges(8, edge_factor=4.0, seed=1), 256)
        first = matrix.with_values(np.arange(matrix.nnz))  # no cache exists yet
        second = first.scale(2.0)
        assert matrix.pattern.col_degrees is None
        degrees = second.col_degrees()
        assert matrix.col_degrees() is degrees
        assert first.col_degrees() is degrees
        assert matrix.pattern.kernel_index is None
        views = [m.kernel_view() for m in (first, matrix, second)]
        for owner, view in zip((first, matrix, second), views):
            assert np.shares_memory(view.indices, views[0].indices)
            assert np.shares_memory(view.indptr, views[0].indptr)
            assert np.shares_memory(view.data, owner.nnz_list)
        assert not np.shares_memory(views[0].data, views[1].data)

    def test_mark_mutated_detaches_onto_a_fresh_pattern(self, skewed_csdb):
        sibling = skewed_csdb.scale(2.0)
        degrees = skewed_csdb.col_degrees()
        sibling.mark_mutated()
        assert sibling.pattern is not skewed_csdb.pattern
        assert sibling.pattern.col_degrees is None
        assert sibling.col_list is skewed_csdb.col_list
        assert sibling.block_ptr is skewed_csdb.block_ptr
        assert skewed_csdb.col_degrees() is degrees
        assert np.array_equal(sibling.col_degrees(), degrees)

    def test_rejects_a_wrong_length(self, paper_csdb):
        with pytest.raises(ValueError, match="values must have shape"):
            paper_csdb.with_values(np.ones(paper_csdb.nnz + 1))

    def test_scale_and_normalize_inherit_the_caches(self, skewed_csdb):
        degrees = skewed_csdb.row_degrees()
        assert skewed_csdb.scale(2.0).row_degrees() is degrees
        assert row_l1_normalize(skewed_csdb).row_degrees() is degrees


def test_nnz_row_ids_is_the_original_row_of_every_nonzero(skewed_csdb):
    expected = skewed_csdb.perm[
        np.repeat(np.arange(skewed_csdb.n_rows), skewed_csdb.row_degrees())
    ]
    assert_same_bits(skewed_csdb.nnz_row_ids(), expected)
    dense = np.zeros(skewed_csdb.shape)
    dense[skewed_csdb.nnz_row_ids(), skewed_csdb.col_list] = skewed_csdb.nnz_list
    assert np.array_equal(dense, skewed_csdb.to_dense())


# -- chebyshev_operator ------------------------------------------------------


def two_build_chebyshev_operator(adjacency: CSDBMatrix, mu: float) -> CSDBMatrix:
    """The former formulation: ``(1-mu)I - DA`` through a second COO build."""
    da = row_l1_normalize(add_identity(adjacency))
    n = adjacency.n_rows
    diag = np.arange(n, dtype=np.int64)
    return CSDBMatrix.from_coo(
        np.concatenate([da.nnz_row_ids(), diag]),
        np.concatenate([da.col_list, diag]),
        np.concatenate([-da.nnz_list, np.full(n, 1.0 - mu)]),
        adjacency.shape,
    )


def _operator_graphs():
    plain = rmat_edges(8, edge_factor=6.0, seed=3)
    plain = plain[plain[:, 0] != plain[:, 1]]
    loops = np.arange(0, 256, 5)
    with_loops = np.concatenate(
        [plain, np.stack([loops, loops], axis=1), plain[:40]]
    )
    # Nodes 256..299 have no edge at all; node 299 only a self-loop.
    isolated = np.concatenate([plain, [[299, 299]]])
    return {
        "no_self_loops": edges_to_csdb(plain, 256),
        "self_loops_and_repeats": edges_to_csdb(with_loops, 256),
        "isolated_nodes": edges_to_csdb(isolated, 300),
        "explicit_zero_weight": edges_to_csdb(
            plain[:50], 256, weights=np.r_[0.0, np.ones(49)]
        ),
    }


@pytest.mark.parametrize("name", list(_operator_graphs()))
@pytest.mark.parametrize("mu", [0.2, 0.5, 1.0])
def test_chebyshev_operator_equals_the_two_build_formulation(name, mu):
    adjacency = _operator_graphs()[name]
    expected = two_build_chebyshev_operator(adjacency, mu)
    aggregate = add_identity(adjacency)
    for operator in (
        chebyshev_operator(adjacency, mu=mu),
        chebyshev_operator(adjacency, mu=mu, aggregate=aggregate),
    ):
        assert operator.shape == expected.shape
        for array in CSDB_ARRAYS:
            assert_same_bits(getattr(operator, array), getattr(expected, array))
    # The operator sits on A+I's blocks rather than on rebuilt ones.
    assert operator.col_list is aggregate.col_list
    assert operator.perm is aggregate.perm


# -- add_identity, transpose, a +- b -------------------------------------------

#: Values whose sums depend on the order of addition, and both zeros.
AWKWARD_VALUES = st.sampled_from([1.0, -1.0, 0.25, 0.1, 1e16, -1e16, -0.0, 0.0])


def assert_same_csdb(actual: CSDBMatrix, expected: CSDBMatrix) -> None:
    assert actual.shape == expected.shape
    for name in CSDB_ARRAYS:
        assert_same_bits(getattr(actual, name), getattr(expected, name))


def from_coo_add_identity(matrix: CSDBMatrix, scale: float = 1.0) -> CSDBMatrix:
    """The formulation ``add_identity`` had: entries + diagonal, re-sorted."""
    diag = np.arange(matrix.n_rows, dtype=np.int64)
    return CSDBMatrix.from_coo(
        np.concatenate([matrix.nnz_row_ids(), diag]),
        np.concatenate([matrix.col_list, diag]),
        np.concatenate([matrix.nnz_list, np.full(matrix.n_rows, scale)]),
        matrix.shape,
    )


def from_coo_transpose(matrix: CSDBMatrix) -> CSDBMatrix:
    """The formulation ``transpose`` had: swapped coordinates, re-sorted."""
    return CSDBMatrix.from_coo(
        matrix.col_list, matrix.nnz_row_ids(), matrix.nnz_list,
        (matrix.n_cols, matrix.n_rows),
    )


def from_coo_elementwise(a: CSRMatrix, b: CSRMatrix, sign: float) -> CSRMatrix:
    """The formulation ``a +- b`` had: the concatenation, re-sorted."""
    return CSRMatrix.from_coo(
        np.concatenate([a.nnz_row_ids(), b.nnz_row_ids()]),
        np.concatenate([a.indices, b.indices]),
        np.concatenate([a.data, sign * b.data]),
        a.shape,
    ).prune()


@st.composite
def square_matrices(draw):
    """Small square CSDB matrices storing none, some or all of the diagonal.

    Few cells per row, so empty rows and isolated nodes are the rule; the
    values are written after the build, so a stored ``-0.0`` survives.
    """
    n = draw(st.integers(1, 8))
    diagonal = draw(st.sampled_from(["none", "some", "all"]))
    index = st.integers(0, n - 1)
    cells = set(draw(st.lists(st.tuples(index, index), max_size=24)))
    if diagonal == "none":
        cells = {(i, j) for i, j in cells if i != j}
    elif diagonal == "all":
        cells |= {(i, i) for i in range(n)}
    rows, cols = [c[0] for c in cells], [c[1] for c in cells]
    built = CSDBMatrix.from_coo(rows, cols, np.ones(len(cells)), (n, n))
    values = draw(st.lists(AWKWARD_VALUES, min_size=built.nnz, max_size=built.nnz))
    return built.with_values(values)


class TestAddIdentityScattersTheDiagonal:
    @given(square_matrices(), st.sampled_from([1.0, 0.5, -2.0, -0.0, 1e16]))
    @settings(max_examples=300, deadline=None)
    def test_every_array_is_bit_equal_to_the_from_coo_formulation(
        self, matrix, scale
    ):
        assert_same_csdb(
            add_identity(matrix, scale), from_coo_add_identity(matrix, scale)
        )

    @pytest.mark.parametrize("name", list(_operator_graphs()))
    def test_graphs_with_loops_repeats_and_isolated_nodes(self, name):
        adjacency = _operator_graphs()[name]
        for scale in (1.0, 0.3):
            assert_same_csdb(
                add_identity(adjacency, scale),
                from_coo_add_identity(adjacency, scale),
            )

    def test_one_node_with_and_without_its_loop(self):
        for cells in ([], [0]):
            matrix = CSDBMatrix.from_coo(cells, cells, [-0.0] * len(cells), (1, 1))
            assert_same_csdb(add_identity(matrix), from_coo_add_identity(matrix))

    def test_the_result_stands_on_its_own_pattern(self, skewed_csdb):
        assert add_identity(skewed_csdb).pattern is not skewed_csdb.pattern

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="must be square"):
            add_identity(CSDBMatrix.from_coo([0], [1], [1.0], (2, 3)))


def _transpose_cases():
    rng = np.random.default_rng(9)
    edges = rmat_edges(8, edge_factor=6.0, seed=5)
    symmetric = edges_to_csdb(edges, 256)
    values = rng.choice([1.0, -0.0, 0.0, 2.5, -3.0], symmetric.nnz)
    rows, cols = rng.integers(0, 30, 150), rng.integers(0, 50, 150)
    return {
        # name: (matrix, whether its transpose has its pattern)
        "symmetric_pattern_asymmetric_values": (
            symmetric.with_values(values), True,
        ),
        "symmetric_with_empty_rows": (
            edges_to_csdb(np.array([[0, 3], [3, 3], [5, 1]]), 9), True,
        ),
        "asymmetric_pattern": (
            edges_to_csdb(edges, 256, undirected=False), False,
        ),
        "rectangular": (
            CSDBMatrix.from_coo(rows, cols, rng.standard_normal(150), (30, 50)),
            False,
        ),
        "no_nonzeros": (CSDBMatrix.from_coo([], [], [], (4, 4)), True),
    }


@pytest.mark.parametrize("name", list(_transpose_cases()))
def test_transpose_equals_the_from_coo_formulation(name):
    matrix, symmetric = _transpose_cases()[name]
    transposed = matrix.transpose()
    assert_same_csdb(transposed, from_coo_transpose(matrix))
    assert (transposed.pattern is matrix.pattern) == symmetric
    assert not np.shares_memory(transposed.nnz_list, matrix.nnz_list)
    assert_same_csdb(transposed.transpose(), from_coo_transpose(transposed))


@st.composite
def csr_pairs(draw):
    """Two ordered CSR operands of one shape whose patterns overlap."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.tuples(
        st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), AWKWARD_VALUES
    )

    def operand():
        entries = draw(st.lists(entry, max_size=20))
        return CSRMatrix.from_coo(
            [e[0] for e in entries], [e[1] for e in entries],
            [e[2] for e in entries], (n_rows, n_cols),
            # Unsummed, an operand repeats coordinates; the merge keeps
            # their order as the stable sort did.
            sum_duplicates=draw(st.booleans()),
        )

    return operand(), operand()


class TestElementwiseMergesOrderedOperands:
    @given(csr_pairs(), st.sampled_from([1.0, -1.0]))
    @settings(max_examples=300, deadline=None)
    def test_csr_arrays_are_bit_equal_to_the_from_coo_formulation(self, pair, sign):
        a, b = pair
        assert_same_csr(a._elementwise(b, sign), from_coo_elementwise(a, b, sign))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_csdb_arrays_are_bit_equal_to_the_from_coo_formulation(self, sign):
        graphs = _operator_graphs()
        a, b = graphs["self_loops_and_repeats"], graphs["no_self_loops"]
        b = b.with_values(np.random.default_rng(1).standard_normal(b.nnz))
        for left, right in ((a, b), (b, a), (a, a)):  # a - a: all cancelled
            merged = left._elementwise(right, sign)
            expected = from_coo_elementwise(left.to_csr(), right.to_csr(), sign)
            assert_same_csdb(merged, CSDBMatrix.from_csr(expected))
        assert (a - a).nnz == 0

    def test_shape_mismatch_and_oversized_shapes_raise_as_before(self):
        small = CSRMatrix.from_coo([0], [0], [1.0], (2, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            small + CSRMatrix.from_coo([0], [0], [1.0], (2, 3))
        huge = CSRMatrix(np.zeros(2, dtype=np.int64), [], [], (1, 2**63))
        with pytest.raises(ValueError, match="too large"):
            huge + huge


# -- SpMMEngine plan reuse ---------------------------------------------------

#: Host-side counters no two calls share: wall-clock time, and a pool
#: backend's segment-cache traffic (a miss on first sight, hits after).
HOST_METRICS = ("spmm.kernel_wall_seconds", "spmm.executor.")


def _multiply_with_own_metrics(engine, matrix, dense):
    """One multiply recorded into a fresh registry: (result, its records)."""
    engine.metrics = MetricsRegistry()
    result = engine.multiply(matrix, dense)
    records = [
        record
        for record in engine.metrics.to_records()
        if not record["name"].startswith(HOST_METRICS)
    ]
    return result, records


class CallCounter:
    """Wrap an engine's allocator/prefetcher entry points and count calls."""

    def __init__(self, engine: SpMMEngine, monkeypatch) -> None:
        self.allocate = self.plan = 0
        allocate, plan = engine.allocator.allocate, engine.prefetcher.plan

        def counted_allocate(*args, **kwargs):
            self.allocate += 1
            return allocate(*args, **kwargs)

        def counted_plan(*args, **kwargs):
            self.plan += 1
            return plan(*args, **kwargs)

        monkeypatch.setattr(engine.allocator, "allocate", counted_allocate)
        monkeypatch.setattr(engine.prefetcher, "plan", counted_plan)


@pytest.fixture
def dense(skewed_csdb):
    return np.random.default_rng(5).standard_normal((skewed_csdb.n_cols, 6))


class TestEnginePlanReuse:
    def test_second_multiply_replans_nothing_and_reports_the_same(
        self, skewed_csdb, dense, monkeypatch
    ):
        engine = SpMMEngine(OMeGaConfig(n_threads=4))
        calls = CallCounter(engine, monkeypatch)
        first, first_records = _multiply_with_own_metrics(
            engine, skewed_csdb, dense
        )
        assert (calls.allocate, calls.plan) == (1, 4)
        second, second_records = _multiply_with_own_metrics(
            engine, skewed_csdb, dense
        )
        assert (calls.allocate, calls.plan) == (1, 4)

        assert second.partitions == first.partitions
        assert second.partitions is not first.partitions
        assert all(
            a is b for a, b in zip(second.prefetch_plans, first.prefetch_plans)
        )
        assert second.prefetch_plans is not first.prefetch_plans
        assert second.sim_seconds == first.sim_seconds
        assert second.trace.to_dict() == first.trace.to_dict()
        assert np.array_equal(second.thread_times, first.thread_times)
        assert_same_bits(second.output, first.output)
        assert second.trace.seconds("allocation") > 0.0
        assert second.trace.seconds("prefetch") > 0.0

        # Every call emits the allocation and prefetch telemetry in full.
        assert second_records == first_records
        names = {record["name"] for record in second_records}
        assert {
            "eata.allocations", "eata.partition.z_entropy", "wofp.plans",
            "wofp.hit_nnz", "wofp.pinned_bytes", "spmm.sim_seconds",
        } <= names

    def test_reused_plan_equals_a_fresh_engine(self, skewed_csdb, dense):
        engine = SpMMEngine(OMeGaConfig(n_threads=4))
        engine.multiply(skewed_csdb, dense)
        reused = engine.multiply(skewed_csdb, dense)
        fresh = SpMMEngine(OMeGaConfig(n_threads=4)).multiply(skewed_csdb, dense)
        assert reused.partitions == fresh.partitions
        assert reused.sim_seconds == fresh.sim_seconds
        assert reused.trace.to_dict() == fresh.trace.to_dict()

    def test_a_caller_mutating_its_result_does_not_reach_the_next_call(
        self, skewed_csdb, dense
    ):
        engine = SpMMEngine(OMeGaConfig(n_threads=4))
        first = engine.multiply(skewed_csdb, dense)
        expected = list(first.partitions)
        first.partitions.clear()
        first.prefetch_plans.clear()
        assert engine.multiply(skewed_csdb, dense).partitions == expected

    def test_each_matrix_gets_its_own_plan(self, skewed_csdb, dense, monkeypatch):
        """Siblings share a plan; strangers — equal content included — do not."""
        engine = SpMMEngine(OMeGaConfig(n_threads=4))
        calls = CallCounter(engine, monkeypatch)
        siblings = [
            skewed_csdb, skewed_csdb.scale(1.0), row_l1_normalize(skewed_csdb)
        ]
        a, b, _ = (engine.multiply(matrix, dense) for matrix in siblings)
        assert (calls.allocate, calls.plan) == (1, 4)
        assert a.partitions == b.partitions
        assert all(x is y for x, y in zip(a.prefetch_plans, b.prefetch_plans))
        # Same arrays, built separately: planned on its own (the cache is
        # keyed on the pattern object, never on content).
        twin = CSDBMatrix(
            skewed_csdb.deg_list, skewed_csdb.deg_ind, skewed_csdb.col_list,
            skewed_csdb.nnz_list, skewed_csdb.perm, skewed_csdb.shape,
        )
        for name in ("deg_list", "deg_ind", "col_list", "nnz_list", "perm"):
            assert np.array_equal(getattr(twin, name), getattr(skewed_csdb, name))
        assert twin.pattern is not skewed_csdb.pattern
        other = edges_to_csdb(rmat_edges(9, edge_factor=4.0, seed=2), 512)
        c = engine.multiply(twin, dense)
        d = engine.multiply(other, np.ones((512, 3)))
        assert (calls.allocate, calls.plan) == (3, 12)
        assert c.partitions == a.partitions
        assert d.partitions != a.partitions
        assert sum(p.nnz_count for p in d.partitions) == other.nnz
        engine.multiply(other, np.ones((512, 3)))
        for matrix in siblings:
            engine.multiply(matrix, dense)
        assert (calls.allocate, calls.plan) == (3, 12)
        # A matrix that announces a mutation is planned again; the
        # siblings it left are not.
        siblings[1].mark_mutated()
        assert engine.multiply(siblings[1], dense).partitions == a.partitions
        assert (calls.allocate, calls.plan) == (4, 16)
        engine.multiply(skewed_csdb, dense)
        assert (calls.allocate, calls.plan) == (4, 16)

    def test_engines_never_share_plans(self, skewed_csdb, dense):
        engines = {
            "default": SpMMEngine(OMeGaConfig(n_threads=4)),
            "wata": SpMMEngine(OMeGaConfig(n_threads=4, allocation="wata")),
            "sigma": SpMMEngine(OMeGaConfig(n_threads=4, sigma=0.5)),
            "eta": SpMMEngine(OMeGaConfig(n_threads=4, eta=10.0)),
        }
        for _ in range(2):  # the second round runs on each engine's own cache
            results = {
                name: engine.multiply(skewed_csdb, dense)
                for name, engine in engines.items()
            }

        def reserved(result):
            return sum(p.reserved_entries for p in result.prefetch_plans)

        def kinds(result):
            return {p.kind for p in result.prefetch_plans}

        default = results["default"]
        assert results["wata"].partitions != default.partitions
        assert reserved(results["sigma"]) > reserved(default)
        assert "frequency" in kinds(default)
        assert kinds(results["eta"]) == {"degree"}
        for name, engine in engines.items():
            fresh = SpMMEngine(engine.config).multiply(skewed_csdb, dense)
            assert results[name].partitions == fresh.partitions
            assert results[name].sim_seconds == fresh.sim_seconds
            assert results[name].trace.to_dict() == fresh.trace.to_dict()

    def test_plan_is_dropped_with_the_matrix(self):
        engine = SpMMEngine(OMeGaConfig(n_threads=4))
        matrix = edges_to_csdb(rmat_edges(8, edge_factor=4.0, seed=1), 256)
        engine.multiply(matrix, np.ones((256, 2)))
        assert len(engine._plans) == 1
        del matrix
        gc.collect()
        assert len(engine._plans) == 0

    def test_plan_and_bound_handles_die_with_the_last_sibling(self):
        engine = SpMMEngine(OMeGaConfig(n_threads=4))
        matrix = edges_to_csdb(rmat_edges(8, edge_factor=4.0, seed=1), 256)
        sibling = matrix.scale(3.0)
        dense = np.ones((256, 2))
        engine.multiply(matrix, dense)
        (plan,) = engine._plans.values()
        first = weakref.ref(plan.replays[2].updates[0][0].__self__)
        # A registry swap rebinds the handles: the old registry's series
        # are held by nothing the engine keeps.
        engine.metrics = MetricsRegistry()
        engine.multiply(sibling, dense)
        assert engine.metrics.counter("spmm.calls").value == 1.0
        assert engine.metrics.counter("eata.allocations", allocator="EaTA").value == 1.0
        gc.collect()
        assert first() is None
        second = weakref.ref(plan.replays[2].updates[0][0].__self__)
        dead_plan, dead_pattern = weakref.ref(plan), weakref.ref(matrix.pattern)
        del plan, matrix
        gc.collect()
        assert len(engine._plans) == 1 and dead_plan() is not None
        del sibling
        gc.collect()
        assert len(engine._plans) == 0
        assert dead_plan() is None and dead_pattern() is None
        # The series live on in the registry; only the plan's hold is gone.
        assert second() is not None
        engine.metrics = MetricsRegistry()
        gc.collect()
        assert second() is None


# -- the embed path, counted -------------------------------------------------


def test_one_embed_never_comparison_sorts_its_nonzeros_and_allocates_once(monkeypatch):
    edges = rmat_edges(9, edge_factor=8.0, seed=4)
    nnz = edges_to_csdb(edges, 512).nnz
    builds, csr_built, allocated, sorts = [], [], [], []
    from_coo = CSDBMatrix.from_coo.__func__
    csr_init = CSRMatrix.__init__
    allocate = EntropyAwareAllocator.allocate

    def counted_from_coo(cls, rows, *args, **kwargs):
        builds.append(len(rows))
        return from_coo(cls, rows, *args, **kwargs)

    def counted_csr_init(self, *args, **kwargs):
        csr_built.append(self)
        csr_init(self, *args, **kwargs)

    def counted_allocate(self, matrix, n_threads):
        allocated.append(matrix)
        return allocate(self, matrix, n_threads)

    def spy(name):
        sort = getattr(np, name)

        def spied(keys, *args, **kwargs):
            # lexsort takes a sequence of key arrays, the others one array.
            for key in keys if name == "lexsort" else [keys]:
                key = np.asarray(key)
                sorts.append((name, key.size, key.dtype.itemsize))
            return sort(keys, *args, **kwargs)

        return spied

    monkeypatch.setattr(CSDBMatrix, "from_coo", classmethod(counted_from_coo))
    monkeypatch.setattr(CSRMatrix, "__init__", counted_csr_init)
    monkeypatch.setattr(EntropyAwareAllocator, "allocate", counted_allocate)
    for name in ("argsort", "lexsort", "sort"):
        monkeypatch.setattr(np, name, spy(name))

    result = OMeGaEmbedder(OMeGaConfig(n_threads=4, dim=8)).embed_edges(edges, 512)

    # The edge list alone, straight into CSDB: F^T is a value-sibling of
    # F (an undirected graph's pattern is symmetric), A+I a scatter into
    # the ordered rows and the Chebyshev operator a value-sibling of A+I.
    assert len(builds) == 1
    assert csr_built == []  # no CSR on the way, nor anywhere after
    # Every sort of as many elements as A has non-zeros is a counting
    # pass over 16-bit digits (WoFP's top-M ranking and the per-row
    # degree order are smaller than that).
    assert [s for s in sorts if s[1] >= nnz and s[2] > 2] == []
    assert any(size >= nnz for _, size, _ in sorts)
    # Four operators, two patterns (F and F^T on A's, the Chebyshev
    # operator and A+I on A+I's): one EaTA split each, however many of
    # the run's products use them.
    assert len(allocated) == 2
    assert len({id(matrix.pattern) for matrix in allocated}) == 2
    assert result.n_spmm > len(allocated)
