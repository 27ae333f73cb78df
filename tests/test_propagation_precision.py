"""Precision oracle for the float32 propagation half.

``prone_propagate`` casts the Chebyshev operator, ``A + I`` and the
initial embedding to float32; the tSVD, every k x k step and the
returned embedding stay float64.  Against a float64 propagation built
here through the same dtype-generic filters, for all three filters on
fixed R-MAT graphs, the pipeline's embedding must stay within the
bounds registered before measuring:

- max-abs difference <= 1e-4 after column-sign alignment (the SVD fixes
  a column only up to sign);
- link-prediction |delta AUC| <= 1e-3 on a 10 % held-out split.

The bounds: float32's unit roundoff is 6e-8, a propagation chains
order 10 products, and a row sums up to ~10^3 terms.  Errors adding up
in one direction would give 6e-8 * 10 * 10^3 = 6e-4; rounding errors
that behave like a random walk give 6e-8 * sqrt(10 * 10^3) = 6e-6.
1e-4 sits between: an order of magnitude above the expected error, and
below what a systematic precision bug (a half-precision step, a lost
scaling) produces.  Link prediction ranks scores, so an AUC moves by
far less than the embedding; 1e-3 is about a tenth of the spread of
``embed_skewed``'s AUC over seeds 21-30 (0.859-0.867).

Also pinned: the returned embedding is float64, and of an embed's 25
products the 19 propagation products see float32 operands and the
6 tSVD products float64.
"""

import numpy as np
import pytest

from repro.eval.linkpred import link_prediction_auc
from repro.eval.splits import sample_negative_edges, train_test_edge_split
from repro.formats import edges_to_csdb
from repro.graphs import rmat_edges
from repro.prone import prone_embed
from repro.prone.filters import make_filter
from repro.prone.laplacian import add_identity, chebyshev_operator
from repro.prone.model import ProNEParams, densify_embedding, prone_smf

MAX_ABS_BOUND = 1e-4
AUC_BOUND = 1e-3

#: (R-MAT scale, dim, graph seed).
GRAPHS = [(10, 16, 21), (9, 8, 22)]
FILTERS = ("gaussian", "heat", "ppr")


def float64_embed(adjacency, params):
    """The pipeline with its propagation left in float64."""
    initial = prone_smf(adjacency, params)
    aggregate = add_identity(adjacency)
    operator = chebyshev_operator(adjacency, mu=params.mu, aggregate=aggregate)
    kwargs = {
        "gaussian": {"theta": params.theta},
        "heat": {"s": params.theta},
        "ppr": {},
    }[params.spectral_filter]
    filtered = make_filter(params.spectral_filter)(
        operator.spmm, aggregate.spmm, initial, order=params.order, **kwargs
    )
    assert filtered.dtype == np.float64
    return densify_embedding(filtered, params.dim)


def sign_aligned_max_abs(actual, expected):
    signs = np.sign(np.sum(actual * expected, axis=0))
    signs[signs == 0] = 1.0
    return float(np.max(np.abs(actual * signs - expected)))


@pytest.mark.parametrize("spectral_filter", FILTERS)
@pytest.mark.parametrize("scale, dim, seed", GRAPHS)
def test_float32_propagation_within_registered_bounds(
    scale, dim, seed, spectral_filter
):
    n = 1 << scale
    edges = rmat_edges(scale, edge_factor=8.0, seed=seed)
    train, test = train_test_edge_split(edges, 0.1, seed=seed)
    negatives = sample_negative_edges(edges, n, len(test), seed=seed)
    adjacency = edges_to_csdb(train, n)
    params = ProNEParams(dim=dim, spectral_filter=spectral_filter)

    embedding = prone_embed(adjacency, params)
    reference = float64_embed(adjacency, params)

    assert embedding.dtype == np.float64
    assert sign_aligned_max_abs(embedding, reference) <= MAX_ABS_BOUND
    delta_auc = link_prediction_auc(
        embedding, test, negatives
    ) - link_prediction_auc(reference, test, negatives)
    assert abs(delta_auc) <= AUC_BOUND


def test_propagation_products_are_float32_and_tsvd_products_float64():
    seen = []

    def recording_factory(matrix):
        def matmul(dense):
            product = matrix.spmm(dense)
            seen.append((matrix.dtype, dense.dtype, product.dtype))
            return product

        return matmul

    edges = rmat_edges(9, edge_factor=8.0, seed=1)
    embedding = prone_embed(
        edges_to_csdb(edges, 1 << 9), ProNEParams(dim=8), recording_factory
    )
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    assert seen == [(f64, f64, f64)] * 6 + [(f32, f32, f32)] * 19
    assert embedding.dtype == np.float64
