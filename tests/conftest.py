"""Shared fixtures: small deterministic graphs and engine configurations."""

from __future__ import annotations

import gc
import glob
import multiprocessing
import os

import numpy as np
import pytest

from repro.core import OMeGaConfig
from repro.formats import CSDBMatrix, CSRMatrix, edges_to_csdb, edges_to_csr
from repro.graphs import chung_lu_edges


#: The example graph of Fig. 5(a): 7 nodes, 11 undirected edges, chosen so
#: the degree sequence matches the paper's (one deg-4 node block, etc.).
PAPER_EDGES = np.array(
    [
        [0, 1],
        [0, 2],
        [0, 3],
        [0, 5],
        [1, 3],
        [1, 4],
        [1, 6],
        [2, 4],
        [2, 6],
        [3, 5],
        [4, 6],
    ],
    dtype=np.int64,
)


@pytest.fixture
def paper_edges() -> np.ndarray:
    """Edge list of the running example graph (|V|=7, |E|=11)."""
    return PAPER_EDGES.copy()


@pytest.fixture
def paper_csr(paper_edges) -> CSRMatrix:
    """CSR adjacency of the example graph."""
    return edges_to_csr(paper_edges, 7)


@pytest.fixture
def paper_csdb(paper_edges) -> CSDBMatrix:
    """CSDB adjacency of the example graph."""
    return edges_to_csdb(paper_edges, 7)


@pytest.fixture(scope="session")
def skewed_edges() -> np.ndarray:
    """A 600-node power-law graph (deterministic)."""
    return chung_lu_edges(600, 4000, gamma=2.2, seed=7)


@pytest.fixture(scope="session")
def skewed_csdb(skewed_edges) -> CSDBMatrix:
    """CSDB adjacency of the skewed test graph."""
    return edges_to_csdb(skewed_edges, 600)


@pytest.fixture(scope="session")
def skewed_csr(skewed_edges) -> CSRMatrix:
    """CSR adjacency of the skewed test graph."""
    return edges_to_csr(skewed_edges, 600)


@pytest.fixture
def small_config() -> OMeGaConfig:
    """A fast engine configuration for unit tests."""
    return OMeGaConfig(n_threads=4, dim=8)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for test inputs."""
    return np.random.default_rng(42)


def _shard_leftovers() -> tuple[set, set, int | None]:
    """(child pids, this process's shard segments, open fds) right now.

    The fd count is None where there is no ``/proc/self/fd``.
    """
    gc.collect()  # an unreferenced Process closes its sentinel when freed
    fds = (
        len(os.listdir("/proc/self/fd"))
        if os.path.isdir("/proc/self/fd")
        else None
    )
    return (
        {child.pid for child in multiprocessing.active_children()},
        set(glob.glob(f"/dev/shm/shard-{os.getpid()}-*")),
        fds,
    )


@pytest.fixture(scope="session")
def _shard_process_state():
    """Create what a process makes once and keeps for good.

    The shared-memory resource tracker and the shared heap's arena each
    hold a descriptor from the first store on; one throwaway store
    opens them before any test counts.
    """
    from repro.shard import EmbeddingShardManager, ShardPolicy

    table = np.zeros((8, 2))
    policy = ShardPolicy(n_shards=2, n_replicas=1)
    with EmbeddingShardManager(table, policy=policy) as manager:
        manager.lookup(np.arange(8))


@pytest.fixture
def no_shard_leftovers(_shard_process_state):
    """No shard worker, segment or descriptor outlives the test.

    The shard test modules opt in with ``pytestmark``, so every
    lifecycle path they drive — crash, restart, promote, split, merge,
    failed start — is checked, not only the scenarios
    ``test_shard_transport.py`` lists.
    """
    children, segments, fds = _shard_leftovers()
    yield
    left_children, left_segments, left_fds = _shard_leftovers()
    assert left_children <= children, "a worker process outlived the test"
    assert left_segments <= segments, "a shard segment outlived the test"
    if fds is not None:
        assert left_fds <= fds, (
            f"{left_fds - fds} file descriptor(s) outlived the test"
        )
