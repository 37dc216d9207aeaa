"""Graph I/O: SNAP-style edge lists and a compact binary format.

The paper loads SNAP edge-list files.  :func:`load_edge_list` parses the
same format (``# comment`` header lines, whitespace-separated
``src dst [weight]`` rows); :func:`save_npz` / :func:`load_npz` give a
fast binary round-trip for generated stand-ins.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["load_edge_list", "save_edge_list", "load_npz", "save_npz"]


def load_edge_list(path: str, undirected: bool = False,
                   num_vertices: Optional[int] = None,
                   name: Optional[str] = None) -> CSRGraph:
    """Parse a SNAP-format edge-list file into a :class:`CSRGraph`.

    Lines starting with ``#`` are comments.  Each data line is
    ``src dst`` or ``src dst weight``.  Vertex ids need not be
    contiguous; the graph is sized by ``num_vertices`` or by
    ``max(id) + 1``.
    """
    srcs, dsts, wts = [], [], []
    weighted = None
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 2 or 3 fields")
            if weighted is None:
                weighted = len(parts) == 3
            elif weighted != (len(parts) == 3):
                raise ValueError(f"{path}:{lineno}: inconsistent weight column")
            srcs.append(int(parts[0]))
            dsts.append(int(parts[1]))
            if weighted:
                wts.append(float(parts[2]))
    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    n = num_vertices
    if n is None:
        n = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1) if src.size else 0
    edges = np.stack([src, dst], axis=1) if src.size else np.zeros((0, 2), np.int64)
    weights = np.asarray(wts, dtype=np.float64) if weighted else None
    return CSRGraph.from_edges(n, edges, weights=weights,
                               undirected=undirected,
                               name=name or os.path.basename(path))


def save_edge_list(graph: CSRGraph, path: str) -> None:
    """Write a graph as a SNAP-format edge list (with weights if any)."""
    degrees = np.diff(graph.indptr)
    src = np.repeat(np.arange(graph.num_vertices), degrees)
    with open(path, "w") as f:
        f.write(f"# {graph.name}: {graph.num_vertices} vertices, "
                f"{graph.num_edges} edges\n")
        cols = [src, graph.indices] + [graph.weights] * graph.is_weighted
        np.savetxt(f, np.column_stack(cols),
                   fmt=["%d", "%d", "%.6g"][:len(cols)])


def save_npz(graph: CSRGraph, path: str) -> None:
    """Binary round-trip save (numpy ``.npz``)."""
    arrays = {"indptr": graph.indptr, "indices": graph.indices,
              "name": np.asarray(graph.name)}
    if graph.weights is not None:
        arrays["weights"] = graph.weights
    np.savez_compressed(path, **arrays)


def load_npz(path: str) -> CSRGraph:
    """Load a graph saved with :func:`save_npz`."""
    with np.load(path, allow_pickle=False) as data:
        weights = data["weights"] if "weights" in data else None
        return CSRGraph(data["indptr"], data["indices"], weights=weights,
                        name=str(data["name"]))
