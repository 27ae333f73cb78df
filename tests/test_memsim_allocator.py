"""Unit tests for the NUMA topology."""

import pytest

from repro.memsim import Locality, MemoryKind, NumaTopology


@pytest.fixture
def topology():
    return NumaTopology(n_sockets=2, cores_per_socket=18)


class TestTopology:
    def test_total_cores(self, topology):
        assert topology.total_cores == 36

    def test_thread_binding_blocks(self, topology):
        sockets = [topology.socket_of_thread(t, 30) for t in range(30)]
        assert sockets[:15] == [0] * 15
        assert sockets[15:] == [1] * 15

    def test_threads_on_socket(self, topology):
        assert topology.threads_on_socket(0, 30) == 15
        assert topology.threads_on_socket(1, 30) == 15
        assert topology.threads_on_socket(0, 7) + topology.threads_on_socket(
            1, 7
        ) == 7

    def test_thread_out_of_range(self, topology):
        with pytest.raises(ValueError, match="thread_id"):
            topology.socket_of_thread(30, 30)

    def test_locality(self, topology):
        assert topology.locality(0, 0) is Locality.LOCAL
        assert topology.locality(0, 1) is Locality.REMOTE

    def test_invalid_socket(self, topology):
        with pytest.raises(ValueError, match="socket"):
            topology.locality(0, 5)

    def test_capacity_aggregates_sockets(self, topology):
        assert topology.capacity(MemoryKind.PM) == 2 * topology.device(
            MemoryKind.PM
        ).capacity_bytes

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="n_sockets"):
            NumaTopology(n_sockets=0)
