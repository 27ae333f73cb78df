"""Unit tests for format conversions and scipy interop."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats import (
    csdb_from_scipy,
    csdb_to_scipy,
    csr_from_scipy,
    csr_to_scipy,
    edges_to_csdb,
    edges_to_csr,
)


class TestEdgeConversions:
    def test_undirected_mirrors_edges(self, paper_edges):
        csr = edges_to_csr(paper_edges, 7)
        dense = csr.to_dense()
        assert np.allclose(dense, dense.T)
        assert csr.nnz == 2 * len(paper_edges)

    def test_directed(self, paper_edges):
        csr = edges_to_csr(paper_edges, 7, undirected=False)
        assert csr.nnz == len(paper_edges)

    def test_weighted(self, paper_edges):
        weights = np.arange(1.0, len(paper_edges) + 1)
        csr = edges_to_csr(paper_edges, 7, weights=weights)
        u, v = paper_edges[0]
        assert csr.to_dense()[u, v] == 1.0
        u, v = paper_edges[-1]
        assert csr.to_dense()[u, v] == len(paper_edges)

    def test_weights_length_mismatch(self, paper_edges):
        with pytest.raises(ValueError, match="weights"):
            edges_to_csr(paper_edges, 7, weights=np.ones(3))

    @pytest.mark.parametrize("build", [edges_to_csr, edges_to_csdb])
    @pytest.mark.parametrize("shape", [(2, 1), (2, 3), ()])
    def test_weights_that_are_not_1d_are_rejected(self, build, shape):
        # A (2, 1) column of weights used to build a (4, 1) nnz_list whose
        # first multiply failed inside scipy; (2, 3) a (4, 3) CSR data.
        edges = np.array([[0, 1], [1, 2]])
        with pytest.raises(ValueError, match=rf"weights must be 1-D.*{shape}"):
            build(edges, 3, weights=np.ones(shape))

    @pytest.mark.parametrize("build", [edges_to_csr, edges_to_csdb])
    def test_a_negative_node_count_is_named(self, build):
        with pytest.raises(ValueError, match="n_nodes must be non-negative, got -1"):
            build(np.array([[0, 1], [1, 2]]), -1)

    def test_bad_edge_shape(self):
        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            edges_to_csr(np.zeros((3, 3), dtype=np.int64), 5)

    @pytest.mark.parametrize(
        "edges, offender",
        [
            ([[0.5, 1.2]], "0.5"),
            ([[0, 1], [2.0, 1.5]], r"1\.5.* edge 1"),
            ([[0, np.nan]], "nan"),
        ],
    )
    def test_non_integral_node_ids_are_rejected(self, edges, offender):
        with pytest.raises(ValueError, match=f"integral.*{offender}"):
            edges_to_csdb(np.array(edges), 3)

    def test_integer_valued_floats_are_node_ids(self):
        built = edges_to_csdb(np.array([[0.0, 1.0]]), 3)
        assert built.to_dense().tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
        assert edges_to_csr(np.empty((0, 2)), 3).nnz == 0

    def test_csdb_equals_csr_route(self, paper_edges):
        assert np.allclose(
            edges_to_csdb(paper_edges, 7).to_dense(),
            edges_to_csr(paper_edges, 7).to_dense(),
        )


class TestScipyInterop:
    def test_csr_roundtrip(self, skewed_csr):
        back = csr_from_scipy(csr_to_scipy(skewed_csr))
        assert np.allclose(back.to_dense(), skewed_csr.to_dense())

    def test_csdb_roundtrip(self, skewed_csdb):
        back = csdb_from_scipy(csdb_to_scipy(skewed_csdb))
        assert np.allclose(back.to_dense(), skewed_csdb.to_dense())

    def test_import_from_scipy_coo(self, rng):
        scipy_mat = sp.random(40, 30, density=0.1, random_state=7, format="coo")
        ours = csr_from_scipy(scipy_mat)
        assert np.allclose(ours.to_dense(), scipy_mat.toarray())

    def test_spmm_agrees_with_scipy(self, skewed_csdb, rng):
        scipy_mat = csdb_to_scipy(skewed_csdb)
        dense = rng.standard_normal((skewed_csdb.n_cols, 5))
        assert np.allclose(skewed_csdb.spmm(dense), scipy_mat @ dense)

    def test_scipy_duplicates_summed(self):
        coo = sp.coo_matrix(
            (np.array([1.0, 2.0]), (np.array([0, 0]), np.array([1, 1]))),
            shape=(2, 2),
        )
        ours = csr_from_scipy(coo)
        assert ours.nnz == 1
        assert ours.to_dense()[0, 1] == 3.0


_REPEATED_BUILDS = """
import resource
from repro.formats.convert import edges_to_csdb
from repro.graphs import rmat_edges

edges = rmat_edges(13, 16.0, seed=3)
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    edges_to_csdb(edges, 1 << 13)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(2 * len(edges) * 8 // resource.getpagesize())
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="counts page faults under glibc's adaptive malloc thresholds",
)
def test_repeated_builds_do_not_refault_their_scratch():
    """A build's heap growth is kept, not trimmed and faulted in again.

    Without ``_reserve_working_set`` every build after the first takes
    six to eight nnz-sized arrays' worth of minor faults (2 400 - 3 100
    pages at this size, one array being 397); with it, none.  A fresh interpreter, so the thresholds
    start where a user's process starts them.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run(
        [sys.executable, "-c", _REPEATED_BUILDS],
        env=env, capture_output=True, text=True, check=True,
    )
    *faults, pages_per_array = map(int, done.stdout.split())
    assert max(faults[2:]) < pages_per_array, faults
