"""Unit tests for the Table I dataset analogues."""

import numpy as np
import pytest

from repro.graphs import DATASET_NAMES, dataset_table, load_dataset
from repro.graphs.datasets import PAPER_GRAPHS


class TestRegistry:
    def test_six_datasets(self):
        assert DATASET_NAMES == ("PK", "LJ", "OR", "TW", "TW-2010", "FR")

    def test_paper_statistics_match_table1(self):
        # Spot checks against Table I of the paper.
        assert PAPER_GRAPHS["PK"].n_nodes == 1_630_000
        assert PAPER_GRAPHS["PK"].n_edges == 44_600_000
        assert PAPER_GRAPHS["TW-2010"].n_edges == 2_410_000_000
        assert PAPER_GRAPHS["FR"].n_nodes == 65_610_000
        assert PAPER_GRAPHS["LJ"].n_distinct_degrees == 1_641

    def test_billion_scale_have_larger_scale_factors(self):
        assert (
            PAPER_GRAPHS["TW-2010"].default_scale
            > PAPER_GRAPHS["LJ"].default_scale
        )
        assert PAPER_GRAPHS["FR"].default_scale > PAPER_GRAPHS["TW"].default_scale


class TestLoading:
    def test_load_is_deterministic(self):
        a = load_dataset("PK")
        b = load_dataset("PK")
        assert np.array_equal(a.edges, b.edges)

    def test_case_insensitive(self):
        assert load_dataset("pk").name == "PK"

    def test_unknown_dataset(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("nope")

    def test_scaled_size(self):
        d = load_dataset("LJ", scale=1024)
        assert d.n_nodes == PAPER_GRAPHS["LJ"].n_nodes // 1024
        assert d.scale == 1024

    def test_invalid_scale(self):
        with pytest.raises(ValueError, match="scale"):
            load_dataset("PK", scale=0)

    def test_mean_degree_tracks_paper(self):
        d = load_dataset("PK")
        paper_mean = 2 * d.paper.n_edges / d.paper.n_nodes
        assert d.stats().mean_degree == pytest.approx(paper_mean, rel=0.15)

    def test_adjacency_caches(self):
        d = load_dataset("PK", scale=4096)
        assert d.adjacency_csdb() is d.adjacency_csdb()
        assert d.adjacency_csr() is d.adjacency_csr()

    def test_adjacency_consistent_across_formats(self):
        d = load_dataset("PK", scale=4096)
        assert np.allclose(
            d.adjacency_csdb().to_dense(), d.adjacency_csr().to_dense()
        )

    def test_full_scale_accessors(self):
        d = load_dataset("OR")
        assert d.paper.n_nodes == PAPER_GRAPHS["OR"].n_nodes
        assert d.paper.n_edges == PAPER_GRAPHS["OR"].n_edges


class TestTable:
    def test_dataset_table_rows(self):
        rows = dataset_table(names=("PK", "LJ"))
        assert [r["graph"] for r in rows] == ["PK", "LJ"]
        for row in rows:
            assert row["nodes"] > 0
            assert row["edges"] > 0
            assert row["degrees"] > 10  # degree diversity survives scaling
            assert row["gini"] > 0.2  # skew survives scaling
