"""Unit tests for the spectral-filter variants and the calibration report."""

import numpy as np
import pytest

from repro.prone import prone_embed
from repro.prone.filters import heat_kernel_filter, make_filter, ppr_filter
from repro.prone.laplacian import add_identity, chebyshev_operator
from repro.prone.model import ProNEParams


class TestHeatKernel:
    def test_matches_dense_taylor(self, paper_csdb, rng):
        order, s = 6, 0.8
        m = chebyshev_operator(paper_csdb).to_dense()
        a_prime = paper_csdb.to_dense() + np.eye(7)
        x = rng.standard_normal((7, 3))
        expected = x.copy()
        term = x.copy()
        for k in range(1, order + 1):
            term = (m @ term) * (-s / k)
            expected += term
        expected = a_prime @ expected
        got = heat_kernel_filter(
            chebyshev_operator(paper_csdb).spmm,
            add_identity(paper_csdb).spmm,
            x,
            order=order,
            s=s,
        )
        assert np.allclose(got, expected)

    def test_smooths_toward_neighbors(self, skewed_csdb, rng):
        """Heat-kernel output correlates more with neighbor averages."""
        x = rng.standard_normal((skewed_csdb.n_rows, 4))
        out = heat_kernel_filter(
            chebyshev_operator(skewed_csdb).spmm,
            lambda y: y,  # skip aggregation for a pure smoothing check
            x,
            order=6,
            s=1.0,
        )
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))

    def test_invalid_params(self, rng):
        with pytest.raises(ValueError, match="order"):
            heat_kernel_filter(lambda x: x, lambda x: x, rng.random((3, 2)), order=0)
        with pytest.raises(ValueError, match="s must"):
            heat_kernel_filter(
                lambda x: x, lambda x: x, rng.random((3, 2)), s=0.0
            )


class TestPPR:
    def test_converges_and_finite(self, skewed_csdb, rng):
        x = rng.standard_normal((skewed_csdb.n_rows, 4))
        out = ppr_filter(
            chebyshev_operator(skewed_csdb).spmm,
            add_identity(skewed_csdb).spmm,
            x,
            order=10,
        )
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))

    def test_alpha_one_limit_is_identityish(self, paper_csdb, rng):
        x = rng.standard_normal((7, 3))
        out = ppr_filter(
            chebyshev_operator(paper_csdb).spmm,
            lambda y: y,
            x,
            order=5,
            alpha=0.999,
        )
        assert np.allclose(out, x, atol=0.05 * np.abs(x).max() + 0.05)

    def test_invalid_alpha(self, rng):
        with pytest.raises(ValueError, match="alpha"):
            ppr_filter(lambda x: x, lambda x: x, rng.random((3, 2)), alpha=0.0)


class TestFilterRegistry:
    def test_lookup(self):
        assert make_filter("heat") is heat_kernel_filter
        assert make_filter("ppr") is ppr_filter

    def test_unknown(self):
        with pytest.raises(KeyError, match="unknown filter"):
            make_filter("nope")

    def test_pipeline_runs_with_each_filter(self, skewed_csdb):
        embeddings = {}
        for name in ("gaussian", "heat", "ppr"):
            params = ProNEParams(dim=8, order=4, spectral_filter=name)
            emb = prone_embed(skewed_csdb, params)
            assert emb.shape == (skewed_csdb.n_rows, 8)
            assert np.all(np.isfinite(emb))
            embeddings[name] = emb
        # The variants genuinely differ.
        assert not np.allclose(embeddings["gaussian"], embeddings["heat"])

    def test_unknown_filter_in_params(self, skewed_csdb):
        params = ProNEParams(dim=8, spectral_filter="nope")
        with pytest.raises(ValueError, match="spectral_filter"):
            prone_embed(skewed_csdb, params)


class TestCalibration:
    def test_report_in_band_on_pk(self):
        from repro.bench.calibration import calibration_report, format_report

        points = calibration_report("PK")
        text = format_report(points)
        assert "Calibration" in text
        # The substantive check: every headline ratio is inside its band.
        for point in points:
            assert point.in_band, f"{point.name}: {point.measured}"
