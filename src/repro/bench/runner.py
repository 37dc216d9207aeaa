"""Canonical experiment configurations (Section 8, "Benchmarks").

Application parameters exactly as the paper sets them: PPR termination
1/100, other walks length 100, node2vec p=2.0 q=0.5, MultiRW 100 roots
per sample, k-hop (25, 10), layer sampling 2000/1000, FastGCN / LADIES
/ MVS batch and step size 64, ClusterGCN 20 clusters per sample.

Walks run on the weighted graph variants ("We generate a weighted
version of these graphs by assigning weights to each edge randomly
from [1, 5)") with one walker per graph vertex; the PPR step cap is
finite (the paper's INF) so the sparse tail terminates.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.api.app import SamplingApp
from repro.api.apps import (
    ClusterGCN,
    DeepWalk,
    FastGCN,
    KHop,
    LADIES,
    Layer,
    MVS,
    MultiRW,
    Node2Vec,
    PPR,
)
from repro.graph import datasets
from repro.graph.csr import CSRGraph

__all__ = ["APP_FACTORIES", "GRAPHS_IN_MEMORY", "RANDOM_WALK_APPS",
           "paper_app", "paper_graph", "run_engine", "run_engines",
           "walk_sample_count"]

#: Graphs that fit in the modeled GPU memory (Table 3 minus FriendS).
GRAPHS_IN_MEMORY = ("ppi", "orkut", "patents", "livej")

#: Applications whose initial sample is a single walker.
RANDOM_WALK_APPS = ("DeepWalk", "PPR", "node2vec", "MultiRW")

#: Paper-parameterised application constructors.
APP_FACTORIES: Dict[str, Callable[[], SamplingApp]] = {
    "DeepWalk": lambda: DeepWalk(walk_length=100),
    "PPR": lambda: PPR(termination_prob=0.01, max_steps=400),
    "node2vec": lambda: Node2Vec(p=2.0, q=0.5, walk_length=100),
    "MultiRW": lambda: MultiRW(num_roots=100, walk_length=100),
    "k-hop": lambda: KHop(fanouts=(25, 10)),
    "Layer": lambda: Layer(step_size=1000, max_size=2000),
    "FastGCN": lambda: FastGCN(step_size=64, batch_size=64),
    "LADIES": lambda: LADIES(step_size=64, batch_size=64),
    "MVS": lambda: MVS(batch_size=64),
    "ClusterGCN": lambda: ClusterGCN(num_clusters=150,
                                     clusters_per_sample=20),
}


def paper_app(name: str) -> SamplingApp:
    """A fresh instance of an application with its paper parameters."""
    return APP_FACTORIES[name]()


def paper_graph(name: str, app_name: str, seed: int = 0) -> CSRGraph:
    """The dataset stand-in an application benchmarks on: weighted for
    the biased random walks, unweighted otherwise."""
    weighted = app_name in ("DeepWalk", "PPR", "node2vec")
    return datasets.load(name, seed=seed, weighted=weighted)


def walk_sample_count(graph: CSRGraph, app_name: str,
                      cap: Optional[int] = 20000) -> int:
    """Samples per run: one walker per vertex for random walks (the
    paper's setup), a large fixed batch otherwise; capped so benchmark
    wall-clock stays reasonable on the scaled graphs."""
    if app_name in RANDOM_WALK_APPS:
        count = graph.num_vertices
    elif app_name in ("k-hop", "MVS"):
        count = 8192
    elif app_name == "ClusterGCN":
        count = 64
    else:
        count = 512
    return min(count, cap) if cap else count


def run_engine(engine, app_name: str, graph_name: str, seed: int = 0,
               num_samples: Optional[int] = None):
    """Run one (engine, app, graph) cell of a figure (None where the
    engine cannot express the app)."""
    return run_engines([engine], app_name, graph_name, seed, num_samples)[0]


def run_engines(engines, app_name: str, graph_name: str, seed: int = 0,
                num_samples: Optional[int] = None) -> List:
    """One cell of a figure for several engines: each engine's result
    (None where it cannot express the app).  An engine prices an
    earlier engine's run (:meth:`SamplingResult.priced_as`) and runs
    itself only where every earlier run refuses it."""
    graph = paper_graph(graph_name, app_name, seed=seed)
    if num_samples is None:
        num_samples = walk_sample_count(graph, app_name)
    runs, results = [], []
    for engine in engines:
        for run in runs:
            try:
                results.append(run.priced_as(engine))
                break
            except ValueError:
                pass
        else:
            try:
                run = engine.run(paper_app(app_name), graph,
                                 num_samples=num_samples, seed=seed)
                runs.append(run)
            except ValueError:
                run = None
            results.append(run)
    return results
