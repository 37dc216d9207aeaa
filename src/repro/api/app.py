"""The :class:`SamplingApp` abstraction (paper Sections 3-4, Figure 3).

A sampling application is described by the paper's six user-defined
functions, expressed here as methods:

===================  ===========================================
Paper UDF            Method
===================  ===========================================
``next``             :meth:`SamplingApp.next`
``steps``            :meth:`SamplingApp.steps`
``sampleSize``       :meth:`SamplingApp.sample_size`
``unique``           :meth:`SamplingApp.unique`
``samplingType``     :meth:`SamplingApp.sampling_type`
``stepTransits``     :meth:`SamplingApp.step_transits`
===================  ===========================================

Two execution paths exist, and every engine supports both:

**Reference path** — the engine calls :meth:`next` once per sampled
vertex with a :class:`~repro.api.sample.Sample` view, the transit
vertices and their edges, exactly as Figure 3 describes.  Any custom
application that only implements the paper's functions runs this way.

**Vectorised path** — built-in applications additionally override
:meth:`sample_neighbors` (individual) or
:meth:`sample_from_neighborhood` (collective) with numpy kernels that
produce a whole step at once.  The base-class defaults implement the
vectorised hooks *in terms of* :meth:`next`, so the two paths are
interchangeable and cross-checked in the test suite.
"""

from __future__ import annotations

import functools
import inspect
from typing import Optional, Tuple

import numpy as np

from repro.api.sample import Sample, SampleBatch
from repro.api.types import (
    INF_STEPS,
    NULL_VERTEX,
    OutputFormat,
    SamplingType,
    StepInfo,
)
from repro.graph.csr import VERTEX_DTYPE, CSRGraph

__all__ = ["SamplingApp", "SamplingType", "NULL_VERTEX", "INF_STEPS",
           "takes_destination"]


class SamplingApp:
    """Base class for graph sampling applications."""

    #: Short name used in reports ("DeepWalk", "k-hop", ...).
    name: str = "app"
    #: Output layout (Section 4.1): SAMPLES or PER_STEP.
    output_format: OutputFormat = OutputFormat.SAMPLES
    #: True when ``next`` needs the previous step's transit (node2vec);
    #: engines then pass ``prev_transits`` into the vectorised hook.
    needs_prev_transits: bool = False
    #: Collective apps only: whether :meth:`sample_from_neighborhood`
    #: reads the materialised combined-neighborhood *values*.  Apps
    #: that only need its size distribution (layer sampling draws
    #: uniformly from the multiset, which is degree-weighted transit
    #: choice + a uniform neighbor) set this False so the engine never
    #: materialises multi-gigabyte neighborhoods in host memory.  The
    #: GPU cost model still charges the device-side construction.
    needs_combined_values: bool = True

    # ------------------------------------------------------------------
    # The paper's user-defined functions
    # ------------------------------------------------------------------

    def steps(self) -> int:
        """Number of computational steps ``k``; INF_STEPS for
        variable-length applications (PPR, layer sampling)."""
        raise NotImplementedError

    def sample_size(self, step: int) -> int:
        """``m_i``: vertices sampled per transit (individual) or per
        sample (collective) at ``step``."""
        raise NotImplementedError

    def unique(self, step: int) -> bool:
        """Whether vertices sampled at ``step`` must be unique within a
        sample (Section 6.3)."""
        return False

    def sampling_type(self) -> SamplingType:
        return SamplingType.INDIVIDUAL

    def step_transits(self, step: int, sample: Sample, transit_idx: int) -> int:
        """The paper's per-sample ``stepTransits``: the
        ``transit_idx``-th transit of ``sample`` at ``step``.  Default:
        the vertex added at the previous step (``prevVertex(1, idx)``),
        i.e. roots at step 0."""
        return sample.prev_vertex(1, transit_idx)

    def next(self, sample: Sample, transits: np.ndarray,
             src_edges: np.ndarray, step: int,
             rng: np.random.Generator) -> int:
        """Sample one new vertex (or return NULL_VERTEX).

        ``transits`` holds one vertex for individual sampling, all the
        sample's transits for collective sampling; ``src_edges`` holds
        the corresponding (combined) neighborhood.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------

    def initial_roots(self, graph: CSRGraph, num_samples: int,
                      rng: np.random.Generator) -> np.ndarray:
        """Initial root set per sample; default one random non-isolated
        vertex ("NextDoor can pick the initial set of samples
        automatically").
        """
        return self.random_roots(graph, (num_samples, 1), rng)

    @staticmethod
    def random_roots(graph: CSRGraph, shape, rng: np.random.Generator) -> np.ndarray:
        """Uniform roots among vertices that have outgoing edges."""
        candidates = graph.non_isolated_vertices()
        if candidates.size == 0:
            raise ValueError("graph has no vertices with outgoing edges")
        picks = rng.integers(0, candidates.size, size=shape, dtype=np.int64)
        return candidates[picks]

    def init_state(self, batch: SampleBatch, rng: np.random.Generator) -> None:
        """Install application state on a fresh batch (MultiRW's live
        root set).  Default: nothing."""

    def post_step(self, batch: SampleBatch, new_vertices: np.ndarray,
                  step: int, rng: np.random.Generator) -> None:
        """Called after a step's vertices are appended (state update
        hook).  Default: nothing."""

    def max_steps_cap(self) -> int:
        """Safety cap on steps for INF applications."""
        return 1000

    # ------------------------------------------------------------------
    # Vectorised hooks — defaults delegate to the reference ``next``
    # ------------------------------------------------------------------

    def transits_for_step(self, batch: SampleBatch, step: int) -> np.ndarray:
        """All samples' transit vertices at ``step`` as ``(S, T)``; the
        app must not modify it later (the step is priced from it after
        the run).  Default, like :meth:`step_transits`: roots at step
        0, else the vertices added at the previous step."""
        if step == 0:
            return batch.roots
        return batch.step_vertices[step - 1]

    def sample_neighbors(
        self,
        graph: CSRGraph,
        transits: np.ndarray,
        step: int,
        rng: np.random.Generator,
        prev_transits: Optional[np.ndarray] = None,
        batch: Optional[SampleBatch] = None,
        sample_ids: Optional[np.ndarray] = None,
        out_rows: Optional[np.ndarray] = None,
        rows: Optional[np.ndarray] = None,
    ) -> Tuple[Optional[np.ndarray], StepInfo]:
        """Individual sampling, one whole step: for each of the ``K``
        flattened (sample, transit) pairs produce ``m`` vertices.

        Returns ``(sampled, info)``, ``sampled`` being ``(K, m)`` — or
        ``None`` when the hook wrote ``out_rows[rows] = sampled``
        itself into the step's destination, which the runtime passes to
        a hook that accepts it (:func:`takes_destination`).

        Default implementation: the reference path — call
        :meth:`next` ``m`` times per pair (returning its array).  NULL
        transits produce NULL outputs without calling ``next``.
        """
        m = self.sample_size(step)
        transits = np.asarray(transits)
        out = np.full((transits.size, m), NULL_VERTEX, dtype=VERTEX_DTYPE)
        for k, t in enumerate(transits):
            if t == NULL_VERTEX:
                continue
            sample = (batch[int(sample_ids[k])]
                      if batch is not None and sample_ids is not None
                      else None)
            edges = graph.neighbors(int(t))
            one = np.array([int(t)], dtype=VERTEX_DTYPE)
            for j in range(m):
                out[k, j] = self.next(sample, one, edges, step, rng)
        return out, StepInfo()

    def sample_from_neighborhood(
        self,
        graph: CSRGraph,
        batch: SampleBatch,
        neigh_values: np.ndarray,
        sample_offsets: np.ndarray,
        transits: np.ndarray,
        step: int,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, StepInfo]:
        """Collective sampling, one whole step: choose ``m`` vertices
        per sample from its combined neighborhood.

        ``neigh_values`` is the ragged concatenation of every sample's
        combined neighborhood; sample ``s`` owns
        ``neigh_values[sample_offsets[s]:sample_offsets[s + 1]]``.
        Default: the reference path via :meth:`next`.
        """
        m = self.sample_size(step)
        num_samples = batch.num_samples
        out = np.full((num_samples, m), NULL_VERTEX, dtype=VERTEX_DTYPE)
        for s in range(num_samples):
            lo, hi = sample_offsets[s], sample_offsets[s + 1]
            edges = neigh_values[lo:hi]
            row_transits = transits[s]
            row_transits = row_transits[row_transits != NULL_VERTEX]
            if row_transits.size == 0:
                continue
            sample = batch[s]
            for j in range(m):
                out[s, j] = self.next(sample, row_transits, edges, step, rng)
        return out, StepInfo()

    def record_step_edges(
        self,
        graph: CSRGraph,
        batch: SampleBatch,
        transits: np.ndarray,
        new_vertices: np.ndarray,
        step: int,
    ) -> Optional[np.ndarray]:
        """Adjacency rows ``(sample_id, u, v)`` to record this step
        (importance / cluster sampling); None to record nothing.

        Row order is part of the contract (sample digests hash it):
        ascending sample, then the order ``u`` appears in the sample's
        ``transits`` row, then the order of ``v`` — for the importance
        samplers its column in ``new_vertices``, for cluster sampling
        its position in ``u``'s adjacency row."""
        return None

    # ------------------------------------------------------------------

    def expected_transits(self, step: int) -> int:
        """Transits per sample at ``step`` for individual sampling:
        ``prod_{i<step} m_i`` (Section 4.1)."""
        count = 1
        for i in range(step):
            count *= self.sample_size(i)
        return count

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


@functools.lru_cache(maxsize=256)
def takes_destination(cls: type) -> bool:
    """Whether app class ``cls``'s :meth:`~SamplingApp.sample_neighbors`
    accepts the step's destination (``out_rows``, or any keyword)."""
    params = inspect.signature(cls.sample_neighbors).parameters.values()
    return any(p.name == "out_rows" or p.kind is p.VAR_KEYWORD
               for p in params)
