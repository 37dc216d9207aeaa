"""Shared small types for the sampling API."""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["SamplingType", "OutputFormat", "StepInfo",
           "NULL_VERTEX", "INF_STEPS"]

#: Returned by ``next`` to indicate "do not add a vertex" (the paper's
#: NULL constant); also the padding value in output arrays.
NULL_VERTEX = -1

#: Returned by ``steps()`` for applications that run until no sample has
#: new transit vertices (the paper's INF constant; PPR, layer sampling).
INF_STEPS = -1


class SamplingType(enum.Enum):
    """Granularity at which ``next`` runs (Section 3).

    INDIVIDUAL: per transit vertex, seeing that transit's neighborhood.
    COLLECTIVE: per sample, seeing the combined neighborhood of all the
    sample's transits.
    """

    INDIVIDUAL = "individual"
    COLLECTIVE = "collective"


class OutputFormat(enum.Enum):
    """The two output layouts of Section 4.1."""

    #: One array per sample containing every vertex sampled at any step
    #: (random walks, layer sampling).
    SAMPLES = "samples"
    #: One array per step (k-hop neighborhood sampling: GNN layers
    #: consume each hop separately).
    PER_STEP = "per_step"


@dataclass(frozen=True)
class StepInfo:
    """Cost hints one engine step reports to the performance model.

    Built-in applications fill these from what the vectorised kernels
    actually did (e.g. node2vec reports its measured rejection rounds
    and neighbor-membership probes); the defaults describe a trivial
    uniform sampler.  Immutable: hooks may share one instance.
    """

    #: Average arithmetic cycles per produced vertex (RNG + user body).
    avg_compute_cycles: float = 8.0
    #: Fraction of warps that hit a data-dependent divergent branch in
    #: the user function.
    divergence_fraction: float = 0.0
    #: Serialized cycles such a divergence costs the warp.
    divergence_cycles: float = 0.0
    #: Extra global reads (8-byte words) per produced vertex beyond the
    #: transit adjacency itself — e.g. node2vec probing the previous
    #: transit's adjacency list.  These scatter for *every* engine:
    #: they touch lists the transit grouping does not cache.
    extra_global_reads_per_vertex: float = 0.0
    #: Fetches of the transit's own adjacency per produced vertex —
    #: 1.0 for a single draw; rejection samplers propose several times
    #: (node2vec reports its measured rounds).  Transit-parallel
    #: engines serve repeats from the cached row; sample-parallel
    #: engines pay a scattered global read per proposal.
    neighbor_reads_per_vertex: float = 1.0
    #: Reads per produced vertex *within the transit's own rows* — e.g.
    #: the binary search over the weight-prefix array that a biased
    #: (weighted) walk performs per draw.  Transit-parallel execution
    #: serves these from the cached copy; sample-parallel execution
    #: pays a scattered global read for each.
    cacheable_reads_per_vertex: float = 0.0
