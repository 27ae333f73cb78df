"""Chebyshev expansion of ProNE's Gaussian band-pass spectral filter.

The spectral-propagation stage enhances the initial embedding by applying
``g(L~) X`` where ``g`` is a Gaussian kernel in the graph spectral domain.
Evaluating ``g`` exactly would require an eigendecomposition; ProNE
approximates it with a truncated Chebyshev expansion whose coefficients
are modified Bessel functions ``iv(i, theta)`` — turning the filter into
a chain of SpMM applications of the shifted Laplacian ``M = L - mu*I``
(see :func:`repro.prone.laplacian.chebyshev_operator`).

The recurrence below mirrors the reference ProNE implementation
(``chebyshev_gaussian``), including its sign convention and the final
``A' (X - conv)`` re-aggregation.  It evaluates the textbook expressions
``0.5*M(M x) - x`` and ``(M(M lx1) - 2*lx1) - lx0`` operation for
operation — so every bit matches the allocating form — but in place: a
step's only new arrays are the two products' outputs, the second of
which becomes the next term; the axpy operands go through one scratch
buffer.

Ownership: a matmul callable returns an array the filter may overwrite;
the ``embedding`` argument is only ever read (the pipeline passes its
checkpointed initial embedding).

Dtype: the recurrence runs in the embedding's dtype — float32 stays
float32, anything else becomes float64 — and the Bessel coefficients
enter as Python floats, so they never widen a float32 term.  The
pipeline passes float32 (:func:`repro.prone.model.prone_propagate`);
the matmul callables must return the operand's dtype.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.special import iv

from repro.formats.csdb import as_values

MatMul = Callable[[np.ndarray], np.ndarray]


def chebyshev_gaussian_filter(
    operator_matmul: MatMul,
    aggregate_matmul: MatMul,
    embedding: np.ndarray,
    order: int = 10,
    theta: float = 0.5,
) -> np.ndarray:
    """Apply the band-pass filter to an embedding matrix.

    Args:
        operator_matmul: computes ``M @ X`` for the shifted Laplacian M.
        aggregate_matmul: computes ``A' @ X`` for the self-looped
            adjacency ``A' = I + A`` (the final aggregation step).
        embedding: (n, d) initial embedding; its dtype (float32, or
            float64 for any other) is the recurrence's.
        order: Chebyshev truncation order (ProNE default 10).
        theta: kernel bandwidth parameter (the Bessel argument).

    Returns:
        The propagated (n, d) matrix, before the final SVD densification
        (see :func:`repro.prone.model.densify_embedding`).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    x = as_values(embedding)
    if order == 1:
        return aggregate_matmul(x)
    scratch = np.empty_like(x)
    lx0 = x
    lx1 = operator_matmul(operator_matmul(x))
    np.multiply(lx1, 0.5, out=lx1)
    np.subtract(lx1, x, out=lx1)
    conv = float(iv(0, theta)) * x
    conv -= np.multiply(lx1, 2.0 * float(iv(1, theta)), out=scratch)
    for i in range(2, order):
        lx2 = operator_matmul(operator_matmul(lx1))
        np.subtract(lx2, np.multiply(lx1, 2.0, out=scratch), out=lx2)
        np.subtract(lx2, lx0, out=lx2)
        np.multiply(lx2, 2.0 * float(iv(i, theta)), out=scratch)
        if i % 2 == 0:
            conv += scratch
        else:
            conv -= scratch
        lx0, lx1 = lx1, lx2
    return aggregate_matmul(np.subtract(x, conv, out=conv))


def spmm_calls_for_order(order: int) -> int:
    """Number of SpMM applications the filter performs at a given order.

    Useful for cost accounting and tests: ``order == 1`` costs a single
    aggregation; otherwise 2 products seed the recurrence, each further
    term costs 2, and the final aggregation costs 1.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order == 1:
        return 1
    return 2 + 2 * (order - 2) + 1
