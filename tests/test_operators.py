"""The paper's §III-A CSDB operators, called as a user calls them.

Multiply runs through the instrumented ``SpMMEngine``; add, subtract,
transpose and scale are ``CSDBMatrix``'s own operators.
"""

import numpy as np

from repro.core import OMeGaConfig, SpMMEngine


class TestAlgebraOperators:
    def test_add(self, paper_csdb):
        result = paper_csdb + paper_csdb
        assert np.allclose(result.to_dense(), 2 * paper_csdb.to_dense())

    def test_subtract(self, paper_csdb):
        result = paper_csdb - paper_csdb
        assert result.nnz == 0

    def test_transpose(self, skewed_csdb):
        result = skewed_csdb.transpose()
        assert np.allclose(result.to_dense(), skewed_csdb.to_dense().T)

    def test_scale(self, paper_csdb):
        result = paper_csdb.scale(-2.0)
        assert np.allclose(result.to_dense(), -2.0 * paper_csdb.to_dense())

    def test_spmm_delegates_to_engine(self, skewed_csdb, rng):
        dense = rng.standard_normal((skewed_csdb.n_cols, 8))
        engine = SpMMEngine(OMeGaConfig(n_threads=4, dim=8))
        result = engine.multiply(skewed_csdb, dense)
        assert np.allclose(result.output, skewed_csdb.spmm(dense))
        assert result.sim_seconds > 0
