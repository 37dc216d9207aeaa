"""Dataset registry: scaled stand-ins for the paper's SNAP graphs.

Table 3 of the paper:

=================  =======  ==========  ==========  ===========
Name               Abrv     # of Nodes  # of Edges  Avg Degree
=================  =======  ==========  ==========  ===========
Protein-Protein    PPI      50K         1.4M        28.0
com-Orkut          Orkut    3M          117M        39.0
cit-Patents        Patents  3.77M       16.5M       4.37
soc-LiveJournal1   LiveJ    4.8M        68.9M       14.3
com-Friendster     FriendS  65.6M       1.8B        27.4
=================  =======  ==========  ==========  ===========

SNAP downloads are unavailable offline, so each dataset is generated
synthetically with (i) the original *average degree*, (ii) a power-law
degree distribution (R-MAT), and (iii) node counts scaled down by a
single common factor so that the relative size ordering — and therefore
which graphs stress which kernels — is preserved.  ``FriendS`` is
additionally flagged ``fits_in_gpu=False`` at the modeled 16 GB by
scaling its *modeled* footprint (see :func:`scaled_memory_bytes`), which
drives the Section 8.4 out-of-memory experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.generators import clustered_graph, rmat_graph

__all__ = ["DatasetSpec", "SPECS", "load", "names", "paper_row",
           "scaled_memory_bytes"]

#: Common down-scale factor from the paper's node counts to ours.
SCALE = 300


@dataclass(frozen=True)
class DatasetSpec:
    """Calibration record for one paper dataset."""

    name: str
    abrv: str
    paper_nodes: int
    paper_edges: int
    avg_degree: float
    #: True when the full-size graph fits in the modeled 16 GB V100.
    fits_in_gpu: bool = True

    @property
    def nodes(self) -> int:
        """Scaled node count used by the reproduction.

        The floor keeps even the smallest stand-in (PPI) large enough
        that sampling runs exercise real parallelism.
        """
        return max(4000, self.paper_nodes // SCALE)

    @property
    def edges(self) -> int:
        """Scaled (directed) edge target to match the average degree."""
        return int(self.nodes * self.avg_degree)


SPECS: Dict[str, DatasetSpec] = {
    "ppi": DatasetSpec("Protein-Protein Interactions", "PPI",
                       50_000, 1_400_000, 28.0),
    "orkut": DatasetSpec("com-Orkut", "Orkut", 3_000_000, 117_000_000, 39.0),
    "patents": DatasetSpec("cit-Patents", "Patents",
                           3_770_000, 16_500_000, 4.37),
    "livej": DatasetSpec("soc-LiveJournal1", "LiveJ",
                         4_800_000, 68_900_000, 14.3),
    "friendster": DatasetSpec("com-Friendster", "FriendS",
                              65_600_000, 1_800_000_000, 27.4,
                              fits_in_gpu=False),
    # Reddit appears in Tables 1 and 5 of the paper without a Table 3
    # row; we model it between PPI and Patents in size.
    "reddit": DatasetSpec("Reddit", "Reddit", 233_000, 11_600_000, 49.8),
}

_cache: Dict[tuple, CSRGraph] = {}


def names() -> list:
    """Dataset keys in Table 3 order (plus reddit last)."""
    return ["ppi", "orkut", "patents", "livej", "friendster", "reddit"]


def load(name: str, seed: int = 0, weighted: bool = False,
         scale: Optional[int] = None) -> CSRGraph:
    """Load (generate) a dataset stand-in by key.

    Parameters
    ----------
    name: one of :func:`names` (case-insensitive).
    seed: generation seed; the same (name, seed, scale) is cached.
    weighted: attach uniform [1, 5) edge weights (paper Section 8).
    scale: override the global :data:`SCALE` down-scale factor.
    """
    key = name.lower()
    if key not in SPECS:
        raise KeyError(f"unknown dataset {name!r}; choose from {names()}")
    spec = SPECS[key]
    factor = SCALE if scale is None else scale
    nodes = max(4000, spec.paper_nodes // factor)
    edges = int(nodes * spec.avg_degree)
    cache_key = (key, seed, factor, weighted)
    if cache_key not in _cache:
        # R-MAT draws directed edges that are then symmetrised and
        # deduplicated; 0.62x the directed target compensates the
        # dedupe losses so the average degree lands near the paper's.
        graph = rmat_graph(nodes, max(int(edges * 0.62), nodes), seed=seed,
                           undirected=True, name=spec.abrv)
        if weighted:
            graph = graph.with_random_weights(seed=seed + 1)
        _cache[cache_key] = graph
    return _cache[cache_key]


def load_clustered(name: str, num_clusters: int, seed: int = 0) -> CSRGraph:
    """ClusterGCN variant: same scale as ``name`` but with planted
    clusters so cluster sampling has real structure."""
    spec = SPECS[name.lower()]
    graph = clustered_graph(spec.nodes, num_clusters,
                            intra_degree=spec.avg_degree * 0.8,
                            inter_degree=spec.avg_degree * 0.2,
                            seed=seed, name=f"{spec.abrv}-clustered")
    return graph


def scaled_memory_bytes(name: str) -> int:
    """Modeled device-memory footprint of the *full-size* graph.

    Used to decide whether a dataset fits in the modeled 16 GB GPU: the
    generated graph is small, but Section 8.4's out-of-memory behaviour
    depends on the original's footprint (8 bytes per edge for CSR
    indices at the paper's scale, plus offsets).
    """
    spec = SPECS[name.lower()]
    return spec.paper_edges * 8 + (spec.paper_nodes + 1) * 8


def paper_row(name: str) -> Dict[str, object]:
    """Table 3 row (paper-reported values) for reporting."""
    spec = SPECS[name.lower()]
    return {
        "name": spec.name,
        "abrv": spec.abrv,
        "nodes": spec.paper_nodes,
        "edges": spec.paper_edges,
        "avg_degree": spec.avg_degree,
    }


def measured_row(name: str, seed: int = 0) -> Dict[str, object]:
    """Table 3 row as measured on the generated stand-in."""
    graph = load(name, seed=seed)
    degs = graph.degrees()
    return {
        "name": SPECS[name.lower()].name,
        "abrv": graph.name,
        "nodes": graph.num_vertices,
        "edges": graph.num_edges,
        "avg_degree": round(float(graph.avg_degree), 2),
        "max_degree": int(degs.max()) if degs.size else 0,
    }
