"""NextDoor reproduction: transit-parallel graph sampling for graph ML.

This package reproduces *Accelerating Graph Sampling for Graph Machine
Learning using GPUs* (Jangda, Polisetty, Guha, Serafini — EuroSys 2021).

The package is organised as follows:

- :mod:`repro.graph` — the graph substrate: CSR graphs, synthetic
  generators calibrated to the paper's datasets, I/O, and partitioning.
- :mod:`repro.gpu` — a deterministic SIMT GPU performance model (and a
  multicore CPU model) that substitutes for the paper's V100 hardware.
- :mod:`repro.api` — the user-facing graph-sampling abstraction of
  Sections 3-4: :class:`~repro.api.SamplingApp` and the built-in
  applications (DeepWalk, PPR, node2vec, MultiRW, k-hop, layer,
  importance, MVS, ClusterGCN).
- :mod:`repro.core` — the paper's contribution: the transit-parallel
  execution engine with load-balanced grid / thread-block / sub-warp
  kernels, scheduling-index construction, caching, collective
  neighborhoods, unique-neighbor dedup, large-graph and multi-GPU modes.
- :mod:`repro.baselines` — every comparator the paper evaluates against:
  SP, TP, KnightKing, the reference CPU GNN samplers, and
  frontier-centric / message-passing graph-framework implementations.
- :mod:`repro.bench` — the experiment harness that regenerates every
  table and figure of the evaluation section, and the GNN epoch cost
  model behind the end-to-end experiments (Tables 1 and 5).

Quickstart::

    from repro import datasets, NextDoorEngine
    from repro.api.apps import DeepWalk

    graph = datasets.load("ppi", seed=0)
    engine = NextDoorEngine()
    result = engine.run(DeepWalk(walk_length=20), graph,
                        num_samples=1024, seed=0)
    walks = result.samples.as_array()
"""

from repro.api.app import SamplingApp, SamplingType, NULL_VERTEX, INF_STEPS
from repro.api.sample import Sample, SampleBatch
from repro.core.engine import NextDoorEngine, SamplingResult
from repro.graph import datasets
from repro.graph.csr import CSRGraph

__all__ = [
    "CSRGraph",
    "INF_STEPS",
    "NULL_VERTEX",
    "NextDoorEngine",
    "Sample",
    "SampleBatch",
    "SamplingApp",
    "SamplingResult",
    "SamplingType",
    "datasets",
]

__version__ = "1.0.0"
