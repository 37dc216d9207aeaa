"""Graph substrate: CSR storage, generators, I/O, and partitioning.

The paper evaluates on five SNAP graphs (Table 3).  This environment has
no network access, so :mod:`repro.graph.datasets` provides scaled-down
synthetic stand-ins whose degree distribution and average degree match
the originals (see DESIGN.md, "Substitutions").
"""

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    rmat_graph,
    clustered_graph,
)

__all__ = [
    "CSRGraph",
    "barabasi_albert_graph",
    "clustered_graph",
    "erdos_renyi_graph",
    "rmat_graph",
]
