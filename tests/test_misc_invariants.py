"""Miscellaneous cross-module invariants and smoke checks."""

import py_compile
from pathlib import Path

import numpy as np
import pytest

from repro.formats import CSDBMatrix
from repro.memsim import (
    AccessPattern,
    Locality,
    Operation,
    cxl_spec,
    dram_spec,
    pm_spec,
    ssd_spec,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestRepoHygiene:
    def test_examples_compile(self):
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 5
        for path in examples:
            py_compile.compile(str(path), doraise=True)

    def test_benchmarks_compile(self):
        benches = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
        # One bench per evaluated table/figure plus ablations/extensions.
        assert len(benches) >= 15
        for path in benches:
            py_compile.compile(str(path), doraise=True)

    def test_docs_exist_and_nonempty(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = REPO_ROOT / name
            assert path.exists(), name
            assert len(path.read_text()) > 1000, name

    def test_public_api_surface(self):
        import repro

        for symbol in repro.__all__:
            assert getattr(repro, symbol, None) is not None, symbol


class TestCSDBPointerConsistency:
    def test_row_ptr_equals_nnz_prefix_everywhere(self, skewed_csdb):
        prefix = skewed_csdb.nnz_prefix()
        for row in range(0, skewed_csdb.n_rows + 1, 7):
            assert skewed_csdb.row_ptr(row) == prefix[row]

    def test_block_ptr_monotone_and_terminal(self, skewed_csdb):
        assert np.all(np.diff(skewed_csdb.block_ptr) >= 0)
        assert skewed_csdb.block_ptr[-1] == skewed_csdb.nnz

    def test_degree_of_row_matches_expanded(self, skewed_csdb):
        expanded = skewed_csdb.row_degrees()
        for row in range(0, skewed_csdb.n_rows, 13):
            assert skewed_csdb.degree_of_row(row) == expanded[row]


class TestDeviceHierarchy:
    """The tier ordering every textbook (and the paper) assumes."""

    def test_sequential_read_bandwidth_ordering(self):
        key = (Operation.READ, AccessPattern.SEQUENTIAL, Locality.LOCAL)
        dram = dram_spec().peak_bandwidth[key]
        pm = pm_spec().peak_bandwidth[key]
        cxl = cxl_spec().peak_bandwidth[key]
        ssd = ssd_spec().peak_bandwidth[key]
        assert dram > pm > ssd
        assert dram > cxl > ssd

    def test_latency_ordering(self):
        args = (Operation.READ, Locality.LOCAL)
        assert (
            dram_spec().latency(*args)
            < cxl_spec().latency(*args)
            < pm_spec().latency(*args)
            < ssd_spec().latency(*args)
        )

    def test_capacity_ordering(self):
        assert (
            dram_spec().capacity_bytes
            < pm_spec().capacity_bytes
            <= ssd_spec().capacity_bytes
        )

    def test_price_ordering(self):
        assert (
            dram_spec().price_per_gib
            > pm_spec().price_per_gib
            > ssd_spec().price_per_gib
        )


class TestEmptyMatrixOperators:
    def test_empty_everything(self):
        empty = CSDBMatrix.from_coo([], [], [], (6, 6))
        assert empty.transpose().nnz == 0
        assert empty.scale(5.0).nnz == 0
        assert np.allclose(empty.spmm(np.eye(6)), 0.0)
        assert empty.col_degrees().sum() == 0
        assert empty.index_bytes() > 0  # block metadata still exists
