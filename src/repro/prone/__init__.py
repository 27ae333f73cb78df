"""ProNE (Zhang et al., IJCAI'19) — the embedding model OMeGa hosts.

ProNE is matrix-factorization based and SpMM-dominated (the paper measures
SpMM at ~70% of its runtime), which is why OMeGa adopts it as the model
prototype.  The pipeline has two stages:

1. **Sparse matrix factorization** (:func:`repro.prone.model.prone_smf`):
   a shifted-PMI-style transform of the l1-normalized adjacency matrix is
   factorized with randomized truncated SVD (Halko et al.) to produce the
   initial embedding;
2. **Spectral propagation** (:mod:`repro.prone.chebyshev`): the initial
   embedding is filtered through a Chebyshev expansion of a Gaussian
   band-pass kernel on the modified graph Laplacian.

Every sparse-times-dense product is routed through a caller-supplied
``spmm`` callable, so the OMeGa engine can instrument all of them.
"""

from repro.prone.chebyshev import chebyshev_gaussian_filter
from repro.prone.filters import heat_kernel_filter, make_filter, ppr_filter
from repro.prone.laplacian import (
    add_identity,
    chebyshev_operator,
    row_l1_normalize,
)
from repro.prone.model import prone_embed, prone_smf, smf_matrix
from repro.prone.tsvd import randomized_tsvd

__all__ = [
    "add_identity",
    "chebyshev_gaussian_filter",
    "chebyshev_operator",
    "heat_kernel_filter",
    "make_filter",
    "ppr_filter",
    "prone_embed",
    "prone_smf",
    "randomized_tsvd",
    "row_l1_normalize",
    "smf_matrix",
]
