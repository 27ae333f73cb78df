"""``CSDBMatrix.from_coo`` builds CSDB directly — and changes no bit.

The build ranks rows by degree before the radix passes, so the entries
land in CSDB layout and no ``CSRMatrix`` is made on the way.  The
formulation it replaced, ``CSDBMatrix.from_csr(CSRMatrix.from_coo(...))``,
is kept here as the oracle (``CSRMatrix.from_coo`` has its own, in
``test_pattern_once.py``): all five arrays must be byte-equal to it, and
every bad input must raise the same error.
"""

import numpy as np
import pytest

from repro.formats import CSDBMatrix, CSRMatrix, edges_to_csdb, edges_to_csr
from repro.graphs import rmat_edges

CSDB_ARRAYS = ("deg_list", "deg_ind", "col_list", "nnz_list", "perm")

#: Values whose sums depend on the order of addition, and both zeros.
VALUES = np.array([1e16, -1e16, 1.0, 0.1, 0.2, 0.3, -0.0, 0.0])


def via_csr(rows, cols, vals, shape):
    """The formulation ``CSDBMatrix.from_coo`` had: a CSR, then re-blocked."""
    return CSDBMatrix.from_csr(CSRMatrix.from_coo(rows, cols, vals, shape))


def assert_same_csdb(built: CSDBMatrix, expected: CSDBMatrix) -> None:
    assert built.shape == expected.shape
    for name in CSDB_ARRAYS:
        actual, wanted = getattr(built, name), getattr(expected, name)
        assert actual.dtype == wanted.dtype, name
        assert actual.shape == wanted.shape, name
        assert actual.tobytes() == wanted.tobytes(), name  # -0.0 != 0.0


def random_coo(seed: int):
    """A seeded COO input with repeated coordinates and empty rows."""
    rng = np.random.default_rng(seed)
    n_rows, n_cols = (int(n) for n in rng.choice([0, 1, 2, 3, 7, 30], 2))
    n_coords = int(rng.integers(1, 20))
    if n_rows == 0 or n_cols == 0:
        return [], [], [], (n_rows, n_cols)
    # A few coordinates, each drawn up to five times: three-fold and
    # deeper duplicates, and rows no coordinate falls in.
    coords = rng.integers(0, [n_rows, n_cols], size=(n_coords, 2))
    picks = rng.integers(0, n_coords, int(rng.integers(0, 5 * n_coords)))
    vals = rng.choice(VALUES, len(picks))
    return coords[picks, 0], coords[picks, 1], vals, (n_rows, n_cols)


@pytest.mark.parametrize("block", range(4))
def test_random_coo_builds_equal_the_csr_route(block):
    for seed in range(60 * block, 60 * (block + 1)):
        rows, cols, vals, shape = random_coo(seed)
        assert_same_csdb(
            CSDBMatrix.from_coo(rows, cols, vals, shape),
            via_csr(rows, cols, vals, shape),
        )
        # Unweighted: no value array, the counts of summed ones.
        assert_same_csdb(
            CSDBMatrix.from_coo(rows, cols, None, shape),
            via_csr(rows, cols, np.ones(len(rows)), shape),
        )


@pytest.mark.parametrize(
    "rows, cols, vals, shape",
    [
        ([0] * 4, [0] * 4, [1e16, 1.0, -1e16, 1.0], (1, 1)),  # one row
        ([1, 0, 1], [0, 0, 0], [-0.0, 1.0, 2.0], (3, 1)),  # -0.0 alone
        ([2, 2, 0, 2, 0], [1, 1, 2, 1, 2], [0.1, 0.2, 0.3, 0.4, 0.5], (4, 3)),
        ([], [], [], (0, 0)),
        ([], [], [], (3, 0)),
        ([], [], [], (0, 3)),
        # More than 65 536 rows: the rank key takes two radix passes, and
        # rows 65 536 apart share their low digit.
        ([70_000, 4, 65_540, 4, 70_000], [1, 0, 2, 0, 1],
         [1.0, 2.0, 3.0, 4.0, 5.0], (70_001, 3)),
    ],
)
def test_edge_cases_equal_the_csr_route(rows, cols, vals, shape):
    assert_same_csdb(
        CSDBMatrix.from_coo(rows, cols, vals, shape),
        via_csr(rows, cols, vals, shape),
    )


def test_a_tall_random_input_takes_two_radix_passes():
    rng = np.random.default_rng(5)
    n_rows = 70_000
    coords = rng.integers(0, [n_rows, 4], size=(8_000, 2))
    # Every coordinate once, a quarter of them three times more.
    picks = np.concatenate([np.arange(8_000), np.tile(np.arange(2_000), 3)])
    rng.shuffle(picks)
    rows, cols = coords[picks, 0], coords[picks, 1]
    vals = rng.choice(VALUES, len(picks))
    assert_same_csdb(
        CSDBMatrix.from_coo(rows, cols, vals, (n_rows, 4)),
        via_csr(rows, cols, vals, (n_rows, 4)),
    )


@pytest.mark.parametrize("scale", [9, 10, 13, 14])
@pytest.mark.parametrize("weighted", [False, True])
def test_rmat_graph_reads_equal_the_csr_route(scale, weighted):
    n = 1 << scale
    edges = rmat_edges(scale, edge_factor=8.0, seed=scale)
    # Repeated edges too, so the duplicate re-block runs on a real graph.
    edges = np.concatenate([edges, edges[::97]])
    weights = None
    if weighted:
        weights = np.random.default_rng(scale).choice(VALUES, len(edges))
    assert_same_csdb(
        edges_to_csdb(edges, n, weights=weights),
        CSDBMatrix.from_csr(edges_to_csr(edges, n, weights=weights)),
    )
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    vals = np.ones(len(src)) if weights is None else np.tile(weights, 2)
    assert_same_csdb(
        CSDBMatrix.from_coo(src, dst, vals, (n, n)),
        via_csr(src, dst, vals, (n, n)),
    )


#: (call, the error the CSR route raised, word for word).
BAD_INPUTS = [
    (lambda build: build(np.array([[0.5, 1.0]]), 3),
     "node ids must be integral, got np.float64(0.5) in edge 0"),
    (lambda build: build(np.array([[0, 3]]), 3), "row index out of range"),
    (lambda build: build(np.array([[0, 3]]), 3, undirected=False),
     "column index out of range"),
    (lambda build: build(np.zeros((3, 3), dtype=np.int64), 5),
     "edges must be (m, 2), got (3, 3)"),
    (lambda build: build(np.array([[0, 1]]), 3, weights=np.ones(2)),
     "weights length must match edges"),
    (lambda build: build(np.array([[0, 1]]), 2**32),
     "shape (4294967296, 4294967296) too large: n_rows * n_cols must be"
     " below 2**63 (the int64 coordinate key would wrap)"),
]

COO_BAD_INPUTS = [
    (([0, 1], [0], [1.0, 1.0], (3, 3)), "rows, cols, vals must have equal length"),
    (([-1], [0], [1.0], (3, 3)), "row index out of range"),
    (([0], [3], [1.0], (3, 3)), "column index out of range"),
    (([0], [0], [1.0], (2**32, 2**31)),
     "shape (4294967296, 2147483648) too large: n_rows * n_cols must be"
     " below 2**63 (the int64 coordinate key would wrap)"),
]


@pytest.mark.parametrize("call, message", BAD_INPUTS)
def test_bad_edge_lists_raise_what_the_csr_route_raised(call, message):
    def csr_route(*args, **kwargs):
        return CSDBMatrix.from_csr(edges_to_csr(*args, **kwargs))

    for build in (edges_to_csdb, csr_route):
        with pytest.raises(ValueError) as raised:
            call(build)
        assert str(raised.value) == message


@pytest.mark.parametrize("args, message", COO_BAD_INPUTS)
def test_bad_coo_inputs_raise_what_the_csr_route_raised(args, message):
    for build in (CSDBMatrix.from_coo, via_csr):
        with pytest.raises(ValueError) as raised:
            build(*args)
        assert str(raised.value) == message
