"""Unit tests for the NUMA topology."""

from collections import Counter

import pytest

from repro.memsim import Locality, MemoryKind, NumaTopology


@pytest.fixture
def topology():
    return NumaTopology(n_sockets=2, cores_per_socket=18)


class TestTopology:
    def test_total_cores(self):
        # The default models the paper's machine: 2 sockets x 18 cores.
        default = NumaTopology()
        assert default.n_sockets * default.cores_per_socket == 36

    def test_thread_binding_blocks(self, topology):
        sockets = [topology.socket_of_thread(t, 30) for t in range(30)]
        assert sockets[:15] == [0] * 15
        assert sockets[15:] == [1] * 15

    def test_threads_on_socket(self, topology):
        def per_socket(n_threads):
            return Counter(
                topology.socket_of_thread(t, n_threads)
                for t in range(n_threads)
            )

        assert per_socket(30) == {0: 15, 1: 15}
        assert sum(per_socket(7).values()) == 7

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
