"""Spectral filter variants for the propagation stage (extension).

ProNE's band-pass Gaussian is one point in a family of spectral
modulators ``g(lambda)`` applied to the embedding through polynomial
expansions in the (shifted) Laplacian.  This module adds the two other
classic choices so the propagation stage can be ablated:

- :func:`heat_kernel_filter` — low-pass ``g(lambda) = exp(-s lambda)``,
  a Taylor expansion in ``L``(smooths embeddings, GraphHeat-style);
- :func:`ppr_filter` — personalized-PageRank low-pass
  ``g(lambda) = alpha / (1 - (1 - alpha)(1 - lambda))``, evaluated as
  the usual power iteration;
- plus ProNE's own :func:`repro.prone.chebyshev.chebyshev_gaussian_filter`
  re-exported for a uniform interface via :func:`make_filter`.

All variants take the same ``(operator_matmul, aggregate_matmul,
embedding)`` signature, so the embedding pipeline and benches can swap
them freely.  Like the Chebyshev recurrence they work in place on the
products' outputs (a matmul callable returns an array the filter may
overwrite) and only ever read ``embedding``, and they run in its dtype:
float32 stays float32, anything else becomes float64.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.formats.csdb import as_values
from repro.prone.chebyshev import chebyshev_gaussian_filter

MatMul = Callable[[np.ndarray], np.ndarray]


def heat_kernel_filter(
    operator_matmul: MatMul,
    aggregate_matmul: MatMul,
    embedding: np.ndarray,
    order: int = 6,
    s: float = 1.0,
) -> np.ndarray:
    """Heat-kernel smoothing ``exp(-s M) X`` via a Taylor expansion.

    ``M`` is the same shifted Laplacian the Chebyshev filter uses; the
    final aggregation matches ProNE's ``A' (.)`` step so variants stay
    comparable.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if s <= 0:
        raise ValueError(f"s must be > 0, got {s}")
    x = as_values(embedding)
    term = x
    total = x.copy()
    for k in range(1, order + 1):
        term = operator_matmul(term)
        term *= -s / k
        total += term
    return aggregate_matmul(total)


def ppr_filter(
    operator_matmul: MatMul,
    aggregate_matmul: MatMul,
    embedding: np.ndarray,
    order: int = 8,
    alpha: float = 0.15,
) -> np.ndarray:
    """Personalized-PageRank propagation (APPNP-style power iteration).

    ``X_{k+1} = (1 - alpha) P X_k + alpha X_0`` where the propagation
    ``P X`` is derived from the shifted-Laplacian product the pipeline
    already exposes (``P = (1 - mu) I - M`` up to the shift).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    x = x0 = as_values(embedding)
    scratch = np.empty_like(x0)
    for _ in range(order):
        # operator_matmul applies M = L - mu I; recover the random-walk
        # propagation P X = X - L X = X - (M + mu I) X up to the shift:
        # (I - M) X ~ (DA + mu I) X, written onto the product's output.
        m_x = operator_matmul(x)
        x = np.subtract(x, m_x, out=m_x)
        x *= 1.0 - alpha
        x += np.multiply(x0, alpha, out=scratch)
        # Keep magnitudes in check; the pipeline re-normalizes anyway.
        norm = np.abs(x, out=scratch).max()
        if norm > 0 and not math.isfinite(norm):
            raise FloatingPointError("PPR propagation diverged")
        if norm > 1e6:
            x /= norm
    return aggregate_matmul(x)


#: Registry of propagation filters by name.
FILTERS: dict[str, Callable[..., np.ndarray]] = {
    "gaussian": chebyshev_gaussian_filter,
    "heat": heat_kernel_filter,
    "ppr": ppr_filter,
}


def make_filter(name: str) -> Callable[..., np.ndarray]:
    """Look up a propagation filter by name."""
    try:
        return FILTERS[name]
    except KeyError:
        raise KeyError(
            f"unknown filter {name!r}; expected one of {sorted(FILTERS)}"
        ) from None
