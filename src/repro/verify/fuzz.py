"""Randomized API fuzzing: random apps × random (and degenerate) graphs.

The paper's API surface is four declarations — ``next``, ``steps``,
``sampleSize``, ``unique`` — so a random application is a random point
in that space: a random step count, random per-step sizes, random
unique flags, with a uniform ``next``.  Each fuzz case pushes one such
app (or a randomly-parameterised built-in) through the NextDoor engine
on a random graph and asserts the properties every correct execution
must have:

* two runs with the same seed agree bitwise (no state leaks);
* serial and chunk-thread runs agree bitwise (the chunked RNG plan is
  worker-count independent);
* the reference ``next`` path yields the same roots and shapes and
  passes the same invariants (it consumes the RNG plan in a
  different pair order, so it is distributionally — not bitwise —
  equal; the diff suite tests that distribution);
* outputs are structurally sound (ranges, unique steps, adjacency
  membership via :mod:`repro.verify.differential`);
* graphs with no usable roots (empty, fully isolated) raise a clean
  ``ValueError`` instead of crashing or looping.

Degenerate graphs — empty, single-vertex, self-loops, isolated
vertices, duplicate edges, star and path extremes — are always in the
pool.  ``tests/test_verify_fuzz.py`` drives the same machinery through
hypothesis when it is installed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.api.app import SamplingApp
from repro.api.apps import PPR, DeepWalk, KHop, LADIES, Layer, Node2Vec
from repro.api.types import INF_STEPS, NULL_VERTEX
from repro.core.engine import NextDoorEngine
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi_graph, rmat_graph
from repro.verify.differential import check_invariants, reference_view
from repro.verify.result import CheckResult

__all__ = [
    "RandomApp",
    "degenerate_graphs",
    "fuzz_case",
    "random_app",
    "random_graph",
    "run_fuzz_checks",
]


def degenerate_graphs() -> Dict[str, CSRGraph]:
    """The adversarial graph fixtures every sweep includes."""
    return {
        "empty": CSRGraph.from_edges(0, [], name="empty"),
        "single_vertex": CSRGraph.from_edges(1, [], name="single"),
        "self_loops": CSRGraph.from_edges(
            4, [(0, 0), (1, 1), (1, 2), (2, 3)], name="selfloops"),
        "isolated": CSRGraph.from_edges(6, [(0, 1), (1, 0)],
                                        name="isolated"),
        "duplicate_edges": CSRGraph.from_edges(
            4, [(0, 1), (0, 1), (0, 1), (1, 2), (2, 3), (2, 3)],
            name="dupedges"),
        "star": CSRGraph.from_edges(
            17, [(0, i) for i in range(1, 17)], undirected=True,
            name="star17"),
        "path": CSRGraph.from_edges(
            12, [(i, i + 1) for i in range(11)], undirected=True,
            name="path12"),
    }


class RandomApp(SamplingApp):
    """A random point in the ``next/steps/sampleSize/unique`` space
    with uniform neighbor choice."""

    name = "RandomApp"

    def __init__(self, sample_sizes, unique_flags) -> None:
        self.sample_sizes = [int(m) for m in sample_sizes]
        self.unique_flags = [bool(u) for u in unique_flags]
        if len(self.sample_sizes) != len(self.unique_flags):
            raise ValueError("one unique flag per step")
        if not self.sample_sizes or min(self.sample_sizes) < 1:
            raise ValueError("sample sizes must be positive")

    def steps(self) -> int:
        return len(self.sample_sizes)

    def sample_size(self, step: int) -> int:
        return self.sample_sizes[step]

    def unique(self, step: int) -> bool:
        return self.unique_flags[step]

    def next(self, sample, transits, src_edges, step, rng) -> int:
        if src_edges.size == 0:
            return NULL_VERTEX
        return int(src_edges[rng.integers(0, src_edges.size)])

    def __repr__(self) -> str:
        return (f"RandomApp(sizes={self.sample_sizes}, "
                f"unique={self.unique_flags})")


def random_app(rng: np.random.Generator) -> SamplingApp:
    """A random application: either a RandomApp point or a
    randomly-parameterised built-in (whose vectorised kernels then get
    fuzzed too)."""
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return DeepWalk(walk_length=int(rng.integers(1, 8)))
    if kind == 1:
        return Node2Vec(p=float(rng.uniform(0.3, 3.0)),
                        q=float(rng.uniform(0.3, 3.0)),
                        walk_length=int(rng.integers(1, 6)))
    if kind == 2:
        return PPR(termination_prob=float(rng.uniform(0.05, 0.5)),
                   max_steps=int(rng.integers(4, 24)))
    if kind == 3:
        return KHop(fanouts=tuple(int(f) for f in
                                  rng.integers(1, 5, size=rng.integers(1, 4))),
                    unique_per_step=bool(rng.integers(0, 2)))
    if kind == 4:
        if bool(rng.integers(0, 2)):
            return LADIES(step_size=int(rng.integers(2, 10)),
                          batch_size=int(rng.integers(1, 5)))
        return Layer(step_size=int(rng.integers(2, 10)),
                     max_size=int(rng.integers(10, 40)))
    k = int(rng.integers(1, 4))
    return RandomApp(sample_sizes=rng.integers(1, 4, size=k),
                     unique_flags=rng.integers(0, 2, size=k))


def random_graph(rng: np.random.Generator) -> CSRGraph:
    """A random graph: usually a generator draw, sometimes a
    degenerate fixture."""
    roll = int(rng.integers(0, 10))
    degenerates = list(degenerate_graphs().values())
    if roll < 3:
        return degenerates[int(rng.integers(0, len(degenerates)))]
    n = int(rng.integers(8, 200))
    e = int(rng.integers(n, 6 * n))
    seed = int(rng.integers(0, 2 ** 31))
    if roll < 7:
        g = rmat_graph(max(n, 2), e, seed=seed, name=f"fuzz-rmat{seed}")
    else:
        g = erdos_renyi_graph(max(n, 2), e, seed=seed,
                              name=f"fuzz-er{seed}")
    if bool(rng.integers(0, 2)):
        g = g.with_random_weights(seed=seed % 9973)
    return g


def fuzz_case(app: SamplingApp, graph: CSRGraph, seed: int,
              num_samples: int = 16,
              workers: Optional[int] = None) -> CheckResult:
    """One fuzz execution; returns a CheckResult describing it."""
    name = f"{app!r}@{graph.name}/seed{seed}"
    problems: List[str] = []
    if graph.non_isolated_vertices().size == 0:
        try:
            NextDoorEngine(workers=workers).run(
                app, graph, num_samples=num_samples, seed=seed)
            problems.append("rootless graph did not raise ValueError")
        except ValueError:
            pass
        return CheckResult(name=name, suite="fuzz", family="api",
                           passed=not problems,
                           detail="; ".join(problems) or "clean reject")
    vec = NextDoorEngine(workers=workers).run(
        app, graph, num_samples=num_samples, seed=seed)
    again = NextDoorEngine(workers=workers).run(
        app, graph, num_samples=num_samples, seed=seed)
    pooled = NextDoorEngine(workers=2).run(
        app, graph, num_samples=num_samples, seed=seed)
    for label, other in (("re-run", again), ("workers=2", pooled)):
        if len(vec.batch.step_vertices) != len(other.batch.step_vertices):
            problems.append(f"{label}: step count differs")
            continue
        for i, (a, b) in enumerate(zip(vec.batch.step_vertices,
                                       other.batch.step_vertices)):
            if not np.array_equal(a, b):
                problems.append(f"{label}: step{i} differs")
    ref = NextDoorEngine(workers=workers).run(
        reference_view(app), graph, num_samples=num_samples, seed=seed)
    if not np.array_equal(ref.batch.roots, vec.batch.roots):
        problems.append("reference path: roots differ")
    if ([a.shape for a in ref.batch.step_vertices]
            != [a.shape for a in vec.batch.step_vertices]
            and app.steps() != INF_STEPS):
        problems.append("reference path: step shapes differ")
    problems += check_invariants(app, vec.batch, graph)
    problems += [f"reference path: {p}"
                 for p in check_invariants(app, ref.batch, graph)]
    return CheckResult(name=name, suite="fuzz", family="api",
                       passed=not problems,
                       detail="; ".join(problems[:4]) if problems
                       else f"{vec.steps_run} steps ok")


def run_fuzz_checks(workers: Optional[int] = None, seed: int = 0,
                    cases: int = 24) -> List[CheckResult]:
    """A seeded fuzz sweep: degenerate fixtures first, then random
    (app, graph) pairs."""
    rng = np.random.default_rng(seed + 20240806)
    results = []
    for graph in degenerate_graphs().values():
        results.append(fuzz_case(DeepWalk(walk_length=4), graph,
                                 seed=seed, workers=workers))
    for _ in range(cases):
        app = random_app(rng)
        graph = random_graph(rng)
        case_seed = int(rng.integers(0, 2 ** 31))
        results.append(fuzz_case(app, graph, seed=case_seed,
                                 workers=workers))
    return results
