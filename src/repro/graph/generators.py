"""Synthetic graph generators.

The paper's datasets (Table 3) are SNAP social / citation graphs with
heavy-tailed degree distributions.  These generators produce graphs with
the same qualitative shape at laptop scale:

- :func:`rmat_graph` — Kronecker/R-MAT recursive generator; the standard
  stand-in for power-law social graphs (Orkut, LiveJournal, Friendster).
- :func:`barabasi_albert_graph` — preferential attachment; also
  power-law, convenient when an exact average degree is wanted.
- :func:`erdos_renyi_graph` — uniform random; used in tests as the
  "no skew" control.
- :func:`clustered_graph` — planted-partition graph with dense clusters;
  the substrate for the ClusterGCN experiments.

All generators are deterministic given a seed and return
:class:`~repro.graph.csr.CSRGraph`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "barabasi_albert_graph",
    "clustered_graph",
    "erdos_renyi_graph",
    "rmat_graph",
]


def _csr_from_pairs(num_vertices: int, src: np.ndarray, dst: np.ndarray,
                    undirected: bool, name: str) -> CSRGraph:
    """CSR of the distinct non-loop ``(src, dst)`` pairs.

    With ``undirected=True`` the pairs are symmetrised *before*
    deduplication, so drawing both (u, v) and (v, u) cannot produce
    parallel edges.  The sorted unique keys ``src * n + dst`` are the
    CSR itself: rows in order, each row's neighbours ascending.
    """
    n = num_vertices
    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    key = (src * n + dst)[src != dst]
    key.sort()
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    key = key[first]
    indptr = np.searchsorted(key, np.arange(n + 1) * n)
    return CSRGraph(indptr, key % n, name=name)


def rmat_graph(
    num_vertices: int,
    num_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    undirected: bool = True,
    name: str = "rmat",
) -> CSRGraph:
    """Generate an R-MAT graph (Chakrabarti et al.).

    The defaults (a, b, c) = (0.57, 0.19, 0.19) are the Graph500
    parameters, which produce the skewed degree distributions typical of
    the social graphs in Table 3.  Edges are drawn on the next power of
    two, ``2**ceil(log2(num_vertices))``, and folded back by modulo, so
    the graph has exactly ``num_vertices`` vertices (some may be
    isolated).
    """
    if num_vertices < 2:
        raise ValueError("need at least 2 vertices")
    if a + b + c > 1.0 + 1e-9 or min(a, b, c) < 0:
        raise ValueError("R-MAT probabilities must be non-negative and sum <= 1")
    rng = np.random.default_rng(seed)
    scale = int(np.ceil(np.log2(num_vertices)))
    # Draw each edge by descending the 2^scale x 2^scale adjacency
    # quadtree: at each level pick one of four quadrants (inverse
    # transform over the quadrant CDF, counting the steps below r).
    cdf = np.cumsum([a, b, c])
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for level in range(scale):
        r = rng.random(num_edges)
        quadrant = (r > cdf[0]).astype(np.int64)
        quadrant += r > cdf[1]
        quadrant += r > cdf[2]
        src = (src << 1) | (quadrant >> 1)
        dst = (dst << 1) | (quadrant & 1)
    src %= num_vertices
    dst %= num_vertices
    return _csr_from_pairs(num_vertices, src, dst, undirected, name)


def barabasi_albert_graph(
    num_vertices: int,
    attach_edges: int,
    seed: int = 0,
    name: str = "ba",
) -> CSRGraph:
    """Preferential-attachment graph; each new vertex attaches to
    ``attach_edges`` existing vertices with probability proportional to
    their degree.  Returned undirected (both directions), so the average
    degree is about ``2 * attach_edges``.
    """
    if attach_edges < 1:
        raise ValueError("attach_edges must be >= 1")
    if num_vertices <= attach_edges:
        raise ValueError("num_vertices must exceed attach_edges")
    rng = np.random.default_rng(seed)
    # Repeated-endpoints list trick: sampling uniformly from the list of
    # all edge endpoints is sampling proportionally to degree.
    targets = list(range(attach_edges))
    endpoint_pool: list = []
    dsts = np.empty((num_vertices - attach_edges, attach_edges),
                    dtype=np.int64)
    for v in range(attach_edges, num_vertices):
        dsts[v - attach_edges] = targets
        endpoint_pool.extend(targets)
        endpoint_pool.extend([v] * attach_edges)
        # Sample next targets (with replacement then dedupe-by-retry is
        # overkill at this scale; duplicates are simply tolerated and
        # removed when building the CSR).
        picks = rng.integers(0, len(endpoint_pool), size=attach_edges)
        targets = [endpoint_pool[p] for p in picks]
    srcs = np.repeat(np.arange(attach_edges, num_vertices), attach_edges)
    return _csr_from_pairs(num_vertices, srcs, dsts.ravel(), True, name)


def erdos_renyi_graph(
    num_vertices: int,
    avg_degree: float,
    seed: int = 0,
    undirected: bool = True,
    name: str = "er",
) -> CSRGraph:
    """Uniform random graph with the requested expected average degree."""
    if avg_degree < 0:
        raise ValueError("avg_degree must be non-negative")
    rng = np.random.default_rng(seed)
    num_edges = int(num_vertices * avg_degree / (2 if undirected else 1))
    src = rng.integers(0, num_vertices, size=num_edges)
    dst = rng.integers(0, num_vertices, size=num_edges)
    return _csr_from_pairs(num_vertices, src, dst, undirected, name)


def clustered_graph(
    num_vertices: int,
    num_clusters: int,
    intra_degree: float = 12.0,
    inter_degree: float = 2.0,
    seed: int = 0,
    name: str = "clustered",
) -> CSRGraph:
    """Planted-partition graph: dense within clusters, sparse across.

    Vertices ``[i * n/k, (i+1) * n/k)`` form cluster ``i``; the
    ClusterGCN experiments use this so that its cluster sampler has real
    structure to exploit.
    """
    if num_clusters < 1 or num_clusters > num_vertices:
        raise ValueError("num_clusters must be in [1, num_vertices]")
    rng = np.random.default_rng(seed)
    cluster_size = num_vertices // num_clusters
    if cluster_size < 2:
        raise ValueError("clusters must contain at least 2 vertices")

    n_intra = int(num_vertices * intra_degree / 2)
    n_inter = int(num_vertices * inter_degree / 2)

    # Intra-cluster edges: pick a cluster, then two members.
    cluster_of = rng.integers(0, num_clusters, size=n_intra)
    base = cluster_of * cluster_size
    span = np.where(cluster_of == num_clusters - 1,
                    num_vertices - base, cluster_size)
    intra_src = base + rng.integers(0, 1 << 30, size=n_intra) % span
    intra_dst = base + rng.integers(0, 1 << 30, size=n_intra) % span

    inter_src = rng.integers(0, num_vertices, size=n_inter)
    inter_dst = rng.integers(0, num_vertices, size=n_inter)

    return _csr_from_pairs(num_vertices,
                           np.concatenate([intra_src, inter_src]),
                           np.concatenate([intra_dst, inter_dst]), True, name)
