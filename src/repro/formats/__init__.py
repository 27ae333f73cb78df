"""Graph/sparse-matrix storage formats.

- :mod:`repro.formats.csr` — a from-scratch Compressed Sparse Row matrix,
  the baseline format of Fig. 19(a);
- :mod:`repro.formats.csdb` — the paper's Compressed Sparse Degree-Block
  format (§III-A) with the operator set the paper requires
  (multiplication, addition, subtraction, transposition);
- :mod:`repro.formats.convert` — conversions between edge lists, CSR,
  CSDB and scipy sparse matrices;
- :mod:`repro.formats.serialize` — the ``.npz`` container of a CSDB
  matrix.
"""

from repro.formats.csdb import (
    CSDBMatrix,
    KernelVerificationError,
    SharedArraySpec,
    SharedCSDB,
    SharedCSDBHandle,
)
from repro.formats.convert import (
    csdb_from_scipy,
    csdb_to_scipy,
    csr_from_scipy,
    csr_to_scipy,
    edges_to_csdb,
    edges_to_csr,
)
from repro.formats.csr import CSRMatrix
from repro.formats.serialize import (
    ContainerFormatError,
    load_csdb,
    save_csdb,
)

__all__ = [
    "CSDBMatrix",
    "CSRMatrix",
    "ContainerFormatError",
    "KernelVerificationError",
    "SharedArraySpec",
    "SharedCSDB",
    "SharedCSDBHandle",
    "csdb_from_scipy",
    "csdb_to_scipy",
    "csr_from_scipy",
    "csr_to_scipy",
    "edges_to_csdb",
    "edges_to_csr",
    "load_csdb",
    "save_csdb",
]
