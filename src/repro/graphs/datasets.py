"""Scaled synthetic analogues of the paper's Table I datasets.

The six evaluation graphs (soc-Pokec, soc-LiveJournal, Com-Orkut, Twitter,
Twitter-2010, Com-Friendster) range up to 3.61 B edges.  We cannot ship
those, so each is replaced by a deterministic Chung-Lu graph whose node
count, average degree and power-law skew match the original at a recorded
downscale factor.  The factor matters: the experiment harness scales the
simulated DRAM/PM capacities by the same amount so capacity effects
(OMeGa-DRAM and FusedMM failing on TW-2010/FR, ASL partitioning) are
preserved, and reported simulated times can be projected back to full
scale by multiplying by ``scale``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.formats.convert import edges_to_csdb, edges_to_csr
from repro.formats.csdb import CSDBMatrix
from repro.formats.csr import CSRMatrix
from repro.graphs.powerlaw import chung_lu_edges
from repro.graphs.stats import GraphStats, graph_stats


@dataclass(frozen=True)
class PaperGraph:
    """Table I statistics of one original dataset."""

    name: str
    full_name: str
    n_nodes: int
    n_edges: int
    n_distinct_degrees: int
    default_scale: int
    gamma: float  # power-law exponent of the synthetic analogue


#: Table I of the paper, with each graph's default downscale factor.
#: Scales are chosen so every analogue fits comfortably in test memory
#: while keeping the billion-scale graphs clearly the largest workloads.
PAPER_GRAPHS: dict[str, PaperGraph] = {
    "PK": PaperGraph("PK", "soc-Pokec", 1_630_000, 44_600_000, 803, 512, 2.4),
    "LJ": PaperGraph("LJ", "soc-LiveJournal", 4_850_000, 85_700_000, 1_641, 512, 2.3),
    "OR": PaperGraph("OR", "Com-Orkut", 3_070_000, 234_470_000, 2_863, 512, 2.2),
    "TW": PaperGraph("TW", "Twitter", 11_320_000, 127_110_000, 5_373, 1_024, 2.1),
    "TW-2010": PaperGraph(
        "TW-2010", "Twitter-2010", 41_650_000, 2_410_000_000, 15_760, 4_096, 2.05
    ),
    "FR": PaperGraph(
        "FR", "Com-Friendster", 65_610_000, 3_610_000_000, 3_148, 8_192, 2.3
    ),
}

#: Table I row order.
DATASET_NAMES: tuple[str, ...] = ("PK", "LJ", "OR", "TW", "TW-2010", "FR")


@dataclass
class Dataset:
    """A loaded (scaled) evaluation graph.

    Attributes:
        name: short Table I name (``"PK"`` .. ``"FR"``).
        edges: (m, 2) undirected edge array of the scaled analogue.
        n_nodes: node count of the scaled analogue.
        scale: downscale factor versus the original graph; multiply
            simulated times by this to project to full scale, and divide
            simulated device capacities by it to preserve memory pressure.
        paper: the original graph's Table I statistics.
    """

    name: str
    edges: np.ndarray
    n_nodes: int
    scale: int
    paper: PaperGraph
    _csdb: CSDBMatrix | None = field(default=None, repr=False)
    _csr: CSRMatrix | None = field(default=None, repr=False)

    @property
    def n_edges(self) -> int:
        """Undirected edge count of the scaled analogue."""
        return int(len(self.edges))

    def adjacency_csdb(self) -> CSDBMatrix:
        """Adjacency matrix in CSDB format (cached)."""
        if self._csdb is None:
            self._csdb = edges_to_csdb(self.edges, self.n_nodes)
        return self._csdb

    def adjacency_csr(self) -> CSRMatrix:
        """Adjacency matrix in CSR format (cached)."""
        if self._csr is None:
            self._csr = edges_to_csr(self.edges, self.n_nodes)
        return self._csr

    def stats(self) -> GraphStats:
        """Summary statistics of the scaled analogue."""
        return graph_stats(self.edges, self.n_nodes)


def load_dataset(
    name: str, scale: int | None = None, seed: int | None = None
) -> Dataset:
    """Load (generate) the scaled analogue of a Table I graph.

    Args:
        name: one of :data:`DATASET_NAMES` (case-insensitive).
        scale: downscale factor; defaults to the per-graph value chosen in
            :data:`PAPER_GRAPHS`.
        seed: RNG seed; defaults to a per-graph constant so analogues are
            stable across runs.
    """
    key = name.upper()
    if key not in PAPER_GRAPHS:
        raise KeyError(
            f"unknown dataset {name!r}; expected one of {DATASET_NAMES}"
        )
    paper = PAPER_GRAPHS[key]
    if scale is None:
        scale = paper.default_scale
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    n_nodes = max(paper.n_nodes // scale, 16)
    n_edges = max(paper.n_edges // scale, 16)
    if seed is None:
        seed = sum(ord(ch) for ch in key)
    edges = chung_lu_edges(n_nodes, n_edges, gamma=paper.gamma, seed=seed)
    return Dataset(name=key, edges=edges, n_nodes=n_nodes, scale=scale, paper=paper)


def dataset_table(
    names: tuple[str, ...] = DATASET_NAMES, scale: int | None = None
) -> list[dict[str, object]]:
    """Rows of Table I: paper statistics next to the scaled analogues."""
    rows: list[dict[str, object]] = []
    for name in names:
        dataset = load_dataset(name, scale=scale)
        stats = dataset.stats()
        rows.append(
            {
                "graph": name,
                "paper_nodes": dataset.paper.n_nodes,
                "paper_edges": dataset.paper.n_edges,
                "paper_degrees": dataset.paper.n_distinct_degrees,
                "scale": dataset.scale,
                "nodes": stats.n_nodes,
                "edges": stats.n_edges,
                "degrees": stats.n_distinct_degrees,
                "mean_degree": stats.mean_degree,
                "gini": stats.gini,
            }
        )
    return rows
