"""The ProNE model: SMF bootstrap + spectral propagation.

This module ties the pieces together in engine-agnostic form: every
sparse product goes through caller-supplied ``spmm`` callables.  The
reference-faithful parameterization is: negative-sampling exponent 0.75,
Chebyshev order 10, ``mu = 0.2``, ``theta = 0.5``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.formats.csdb import CSDBMatrix
from repro.obs.tracer import NULL_TRACER, SpanTracer
from repro.prone.chebyshev import chebyshev_gaussian_filter
from repro.prone.laplacian import add_identity, chebyshev_operator, row_l1_normalize
from repro.prone.tsvd import embedding_from_factors, randomized_tsvd, tall_svd

MatMulFactory = Callable[[CSDBMatrix], Callable[[np.ndarray], np.ndarray]]

#: The propagation half's value dtype: the Chebyshev operator, ``A + I``
#: and the filter's operands (DESIGN §6g).
PROPAGATION_DTYPE = np.float32


def _plain_matmul_factory(matrix: CSDBMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """Default SpMM routing: the raw CSDB kernel, no instrumentation."""
    return matrix.spmm


@dataclass(frozen=True)
class ProNEParams:
    """Hyper-parameters of ProNE.

    Attributes:
        dim: embedding dimensionality.
        negative_exponent: smoothing exponent of the negative-sampling
            distribution (word2vec's 0.75).
        order: Chebyshev truncation order of the spectral filter.
        mu: Laplacian shift of the band-pass kernel.
        theta: kernel bandwidth (Bessel argument).
        n_oversamples / n_power_iterations: randomized-tSVD accuracy knobs.
        seed: RNG seed of the tSVD range finder.
        spectral_filter: propagation filter — ``"gaussian"`` (ProNE's
            band-pass, the default), ``"heat"`` or ``"ppr"`` (see
            :mod:`repro.prone.filters`).
    """

    dim: int = 32
    negative_exponent: float = 0.75
    order: int = 10
    mu: float = 0.2
    theta: float = 0.5
    n_oversamples: int = 8
    n_power_iterations: int = 2
    seed: int = 0
    spectral_filter: str = "gaussian"

    def __post_init__(self) -> None:
        for name, least in (
            ("dim", 1), ("n_oversamples", 0), ("n_power_iterations", 0)
        ):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


def smf_matrix(adjacency: CSDBMatrix, negative_exponent: float = 0.75) -> CSDBMatrix:
    """ProNE's factorization target: a shifted-PMI transform of D^-1 A.

    Entry-wise (over the adjacency's sparsity pattern):

        F_ij = max(log(p_ij), 0) - log(neg_j),
        p_ij  = A_ij / deg(i),
        neg_j = colsum(P)_j^0.75 / sum_k colsum(P)_k^0.75

    The transform only changes values, so the CSDB block structure is
    reused as-is — no re-sorting.
    """
    tran = row_l1_normalize(adjacency)
    # Column sums of the transition matrix, smoothed.
    colsum = np.bincount(
        tran.col_list, weights=tran.nnz_list, minlength=tran.n_cols
    )
    neg = colsum**negative_exponent
    total = neg.sum()
    if total > 0:
        neg = neg / total
    neg = np.where(neg > 0, neg, 1.0)
    p = np.where(tran.nnz_list > 0, tran.nnz_list, 1.0)
    values = np.log(p) - np.log(neg[tran.col_list])
    return tran.with_values(values)


def prone_smf(
    adjacency: CSDBMatrix,
    params: ProNEParams,
    matmul_factory: MatMulFactory = _plain_matmul_factory,
    tracer: SpanTracer | None = None,
) -> np.ndarray:
    """Stage 1: initial embedding by randomized tSVD of the SMF matrix."""
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("smf_matrix"):
        f = smf_matrix(adjacency, params.negative_exponent)
        ft = f.transpose()
    with tracer.span("tsvd", dim=params.dim):
        u, s, _ = randomized_tsvd(
            matmul_factory(f),
            matmul_factory(ft),
            f.shape,
            params.dim,
            n_oversamples=params.n_oversamples,
            n_power_iterations=params.n_power_iterations,
            seed=params.seed,
        )
        return embedding_from_factors(u, s)


def densify_embedding(matrix: np.ndarray, dim: int) -> np.ndarray:
    """ProNE's final densification: top-``dim`` ``U * sqrt(s)``, l2 norm.

    The (n, d) block's SVD is taken through its d x d Gram matrix
    (:func:`repro.prone.tsvd.tall_svd`); a zero singular value yields a
    zero column, so an all-zero block (edgeless graph) embeds to zeros.
    """
    u, s, _ = tall_svd(matrix, dim)
    return embedding_from_factors(u, s)


def prone_propagate(
    adjacency: CSDBMatrix,
    embedding: np.ndarray,
    params: ProNEParams,
    matmul_factory: MatMulFactory = _plain_matmul_factory,
    tracer: SpanTracer | None = None,
) -> np.ndarray:
    """Stage 2: spectral propagation through the configured filter.

    The one precision switch of an embed: the operators are built in
    float64 and cast, with the initial embedding, to
    :data:`PROPAGATION_DTYPE`, so every product of the filter moves half
    the bytes.  The filtered block comes back to float64 before
    :func:`densify_embedding`; the returned embedding is float64.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("laplacian"):
        aggregate = add_identity(adjacency)
        operator = chebyshev_operator(
            adjacency, mu=params.mu, aggregate=aggregate
        )
        operator, aggregate = (
            matrix.with_values(matrix.nnz_list.astype(PROPAGATION_DTYPE))
            for matrix in (operator, aggregate)
        )
        embedding = np.asarray(embedding, dtype=PROPAGATION_DTYPE)
    operator_matmul = matmul_factory(operator)
    aggregate_matmul = matmul_factory(aggregate)
    with tracer.span(
        "chebyshev_filter", filter=params.spectral_filter, order=params.order
    ):
        if params.spectral_filter == "gaussian":
            filtered = chebyshev_gaussian_filter(
                operator_matmul,
                aggregate_matmul,
                embedding,
                order=params.order,
                theta=params.theta,
            )
        elif params.spectral_filter == "heat":
            from repro.prone.filters import heat_kernel_filter

            filtered = heat_kernel_filter(
                operator_matmul,
                aggregate_matmul,
                embedding,
                order=params.order,
                s=params.theta,
            )
        elif params.spectral_filter == "ppr":
            from repro.prone.filters import ppr_filter

            filtered = ppr_filter(
                operator_matmul, aggregate_matmul, embedding, order=params.order
            )
        else:
            raise ValueError(
                f"unknown spectral_filter {params.spectral_filter!r};"
                " expected 'gaussian', 'heat' or 'ppr'"
            )
    with tracer.span("densify"):
        return densify_embedding(filtered.astype(np.float64), params.dim)


def prone_embed(
    adjacency: CSDBMatrix,
    params: ProNEParams | None = None,
    matmul_factory: MatMulFactory = _plain_matmul_factory,
    tracer: SpanTracer | None = None,
) -> np.ndarray:
    """Full ProNE: SMF bootstrap followed by spectral propagation."""
    params = params or ProNEParams()
    initial = prone_smf(adjacency, params, matmul_factory, tracer=tracer)
    return prone_propagate(
        adjacency, initial, params, matmul_factory, tracer=tracer
    )
