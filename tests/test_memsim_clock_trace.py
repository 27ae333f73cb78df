"""Unit tests for the per-operation cost ledgers."""

import pytest

from repro.memsim import CostTrace
from repro.memsim.trace import SPMM_CATEGORIES


class TestCostTrace:
    def test_charge_and_totals(self):
        trace = CostTrace()
        trace.charge("get_dense_nnz", 2.0, nbytes=100.0)
        trace.charge("get_dense_nnz", 1.0, nbytes=50.0)
        trace.charge("write_result", 1.0)
        assert trace.seconds("get_dense_nnz") == 3.0
        assert trace.bytes_moved("get_dense_nnz") == 150.0
        assert trace.total_seconds == 4.0
        assert trace.fraction("get_dense_nnz") == pytest.approx(0.75)

    def test_unknown_category_is_zero(self):
        trace = CostTrace()
        assert trace.seconds("nope") == 0.0
        assert trace.fraction("nope") == 0.0

    def test_merge(self):
        a, b = CostTrace(), CostTrace()
        a.charge("x", 1.0)
        b.charge("x", 2.0)
        b.charge("y", 3.0)
        a.merge(b)
        assert a.seconds("x") == 3.0
        assert a.seconds("y") == 3.0
        assert b.seconds("x") == 2.0  # the source is untouched

    def test_reset(self):
        trace = CostTrace()
        trace.charge("x", 1.0)
        trace.reset()
        assert trace.total_seconds == 0.0

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError, match="seconds"):
            CostTrace().charge("x", -0.1)

    def test_spmm_categories_are_algorithm1_steps(self):
        assert SPMM_CATEGORIES == (
            "read_index",
            "get_sparse_nnz",
            "get_dense_nnz",
            "accumulate",
            "write_result",
        )

    def test_empty_trace_fraction(self):
        assert CostTrace().fraction("x") == 0.0
