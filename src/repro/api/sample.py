"""Samples and batches of samples.

Engines grow all samples together in rectangular numpy arrays — one
array per step, padded with :data:`NULL_VERTEX` where a sample added
fewer vertices (terminated walks, zero-degree transits).  That batch
layout *is* the GPU layout the paper describes: per-step output arrays
in device memory, plus the per-sample flattened view for applications
that want output format (1) of Section 4.1.

:class:`Sample` is the paper-facing per-sample view with the
``prevVertex`` / ``prevEdges`` / ``roots`` accessors of Figure 3; the
reference (non-vectorised) execution path hands these to the user's
``next`` function.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.api.types import NULL_VERTEX
from repro.graph.csr import VERTEX_DTYPE, CSRGraph

__all__ = ["Sample", "SampleBatch"]


class SampleBatch:
    """All samples of one run, grown step by step.

    Attributes
    ----------
    roots:
        ``(num_samples, r)`` initial vertices per sample.  Every vertex
        array of a batch holds ``int32`` ids, NULL = -1.
    step_vertices:
        ``step_vertices[i]`` is the ``(num_samples, w_i)`` array of
        vertices added at step ``i`` (NULL-padded).
    state:
        Application-owned per-sample state (e.g. MultiRW's live root
        set).  Engines carry it opaquely.
    edges:
        For adjacency-recording applications (importance/cluster
        sampling): per step, an ``(E_i, 3)`` array of
        ``(sample_id, u, v)`` recorded edges.
    """

    def __init__(self, graph: CSRGraph, roots: np.ndarray) -> None:
        roots = np.asarray(roots)
        if roots.size and roots.dtype != VERTEX_DTYPE and not (
                NULL_VERTEX <= roots.min() and roots.max() < 2**31):
            raise ValueError("roots must be int32 vertex ids")
        roots = roots.astype(VERTEX_DTYPE, copy=False)
        if roots.ndim == 1:
            roots = roots[:, None]
        if roots.ndim != 2:
            raise ValueError("roots must be (num_samples,) or (num_samples, r)")
        self.graph = graph
        self.roots = roots
        self.step_vertices: List[np.ndarray] = []
        self.state: Dict[str, np.ndarray] = {}
        self.edges: List[np.ndarray] = []

    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        return self.roots.shape[0]

    @property
    def num_steps(self) -> int:
        return len(self.step_vertices)

    def append_step(self, vertices: np.ndarray) -> None:
        """Record the vertices added this step: ``(num_samples, w)``."""
        vertices = np.asarray(vertices, dtype=VERTEX_DTYPE)
        if vertices.ndim != 2 or vertices.shape[0] != self.num_samples:
            raise ValueError("step array must be (num_samples, w)")
        self.step_vertices.append(vertices)

    def record_edges(self, edges: np.ndarray) -> None:
        """Record ``(sample_id, u, v)`` adjacency rows for this step."""
        edges = np.asarray(edges, dtype=VERTEX_DTYPE)
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 3):
            raise ValueError("edges must be (E, 3)")
        self.edges.append(edges.reshape(-1, 3))

    # ------------------------------------------------------------------
    # Output formats (Section 4.1)
    # ------------------------------------------------------------------

    def as_array(self, include_roots: bool = False) -> np.ndarray:
        """Output format 1: one row per sample with all sampled
        vertices from all steps (NULL-padded)."""
        parts = ([self.roots] if include_roots else []) + self.step_vertices
        if not parts:
            return np.empty((self.num_samples, 0), dtype=VERTEX_DTYPE)
        return np.concatenate(parts, axis=1)

    def per_step_arrays(self) -> List[np.ndarray]:
        """Output format 2: one array per step (k-hop GNN layers)."""
        return list(self.step_vertices)

    def sample_vertices(self, i: int, include_roots: bool = True,
                        drop_null: bool = True) -> np.ndarray:
        """All vertices of sample ``i`` in sampling order."""
        row = self.as_array(include_roots=include_roots)[i]
        if drop_null:
            row = row[row != NULL_VERTEX]
        return row

    def sample_edges(self, i: int) -> np.ndarray:
        """Recorded adjacency rows ``(u, v)`` of sample ``i``."""
        if not self.edges:
            return np.zeros((0, 2), dtype=VERTEX_DTYPE)
        all_edges = np.concatenate(self.edges, axis=0)
        return all_edges[all_edges[:, 0] == i][:, 1:]

    def __getitem__(self, i: int) -> "Sample":
        if not 0 <= i < self.num_samples:
            raise IndexError(i)
        return Sample(self, i)

    def __len__(self) -> int:
        return self.num_samples

    def __iter__(self):
        return (Sample(self, i) for i in range(self.num_samples))


class Sample:
    """Per-sample view with the paper's ``Sample`` accessors."""

    def __init__(self, batch: SampleBatch, index: int) -> None:
        self._batch = batch
        self.index = index

    @property
    def graph(self) -> CSRGraph:
        return self._batch.graph

    @property
    def roots(self) -> np.ndarray:
        """The sample's current root set (live state when the app keeps
        one — MultiRW — otherwise the initial roots)."""
        live = self._batch.state.get("roots")
        if live is not None:
            return live[self.index]
        return self._batch.roots[self.index]

    def num_roots(self) -> int:
        return int(self.roots.size)

    def prev_vertex(self, i: int, pos: int) -> int:
        """Vertex added at position ``pos`` of the last ``i``-th step
        (``prevVertex(1, p)`` = previous step), NULL if out of range.

        At the start of the run (no steps yet) the roots act as "step
        -1": ``prev_vertex(1, pos)`` returns root ``pos``.
        """
        steps = self._batch.step_vertices
        idx = len(steps) - i
        if idx < -1:
            return NULL_VERTEX
        row = self._batch.roots[self.index] if idx == -1 else steps[idx][self.index]
        if not 0 <= pos < row.size:
            return NULL_VERTEX
        return int(row[pos])

    def prev_edges(self, i: int, pos: int) -> np.ndarray:
        """Adjacency list of :meth:`prev_vertex`'s result (the paper's
        ``prevEdges``; node2vec probes it)."""
        v = self.prev_vertex(i, pos)
        if v == NULL_VERTEX:
            return np.zeros(0, dtype=VERTEX_DTYPE)
        return self.graph.neighbors(v)

    def vertices(self, include_roots: bool = True) -> np.ndarray:
        """All non-NULL vertices sampled so far."""
        return self._batch.sample_vertices(self.index,
                                           include_roots=include_roots)

    def recorded_edges(self) -> np.ndarray:
        return self._batch.sample_edges(self.index)

    def __repr__(self) -> str:
        return (f"Sample(index={self.index}, "
                f"vertices={self.vertices().tolist()[:8]}...)")
