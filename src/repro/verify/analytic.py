"""Statistical checks: empirical frequencies vs analytic expectations.

Each check draws a large, seeded batch of transitions through the same
vectorised hooks the engines execute (the reference ``next`` path is
held equivalent by the differential suite) and tests the empirical
distribution against the analytic one that the paper's abstraction
defines for the application:

====================  =============================================
Application           Analytic transition law
====================  =============================================
DeepWalk / k-hop /    uniform over the transit's neighbors
MVS / MultiRW
DeepWalk (weighted)   proportional to edge weight
node2vec              p / (1/q) / 1 second-order bias
PPR                   geometric walk length (termination prob)
FastGCN               global importance ``deg(v) + 1``
LADIES                combined-neighborhood occurrences weighted by
                      ``deg(v) + 1`` (the squared-column-norm proxy)
Layer                 uniform over the combined multiset
====================  =============================================

All graphs are explicit edge lists (not generator output), all RNGs
seeded, so every p-value is a constant; thresholds per
``docs/TESTING.md``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.api.apps import MVS, PPR, DeepWalk, FastGCN, KHop, LADIES, Layer, Node2Vec
from repro.api.sample import SampleBatch
from repro.api.types import NULL_VERTEX
from repro.core.engine import NextDoorEngine
from repro.graph.csr import VERTEX_DTYPE, CSRGraph
from repro.verify.result import CheckResult
from repro.verify.stats import ALPHA, binned_lengths, chi_square_gof

__all__ = ["run_statistical_checks", "STAT_CHECKS"]


# ----------------------------------------------------------------------
# Deterministic check graphs (explicit edge lists, hand-sized so every
# chi-square bin has healthy expected counts).
# ----------------------------------------------------------------------

def _hub_graph() -> CSRGraph:
    """Vertex 0 adjacent to 1..12; the spokes form a ring so their
    degrees differ from the hub's."""
    edges = [(0, i) for i in range(1, 13)]
    edges += [(i, i % 12 + 1) for i in range(1, 13)]
    return CSRGraph.from_edges(13, edges, undirected=True, name="hub13")


def _node2vec_graph() -> CSRGraph:
    """t = 0, v = 1; v's neighbors split into the three bias cases:
    back-edge (0), common neighbors of t (2, 3), strangers (4..7)."""
    edges = [(1, 0), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
             (0, 2), (0, 3)]
    return CSRGraph.from_edges(8, edges, undirected=True, name="n2v8")


def _cycle_graph(n: int = 64) -> CSRGraph:
    """Directed cycle: every vertex has out-degree exactly 1, so PPR
    walks terminate only by their geometric coin."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    return CSRGraph.from_edges(n, edges, undirected=False, name="cycle")


def _skewed_graph() -> CSRGraph:
    """24 vertices with a deliberately skewed degree sequence for the
    importance-sampling checks."""
    edges = []
    for i in range(1, 24):
        edges.append((0, i))               # hub: degree 23
    for i in range(1, 12):
        edges.append((i, i + 12))          # mid vertices gain a degree
    for i in range(1, 8):
        edges.append((i, (i % 11) + 1))    # extra skew in the low ids
    return CSRGraph.from_edges(24, edges, undirected=True, name="skew24")


def _gof_result(name: str, family: str, observed, expected,
                detail: str = "") -> CheckResult:
    stat, pvalue = chi_square_gof(np.asarray(observed),
                                  np.asarray(expected))
    return CheckResult(name=name, suite="stat", family=family,
                       passed=bool(pvalue >= ALPHA), statistic=stat,
                       pvalue=pvalue, detail=detail)


# ----------------------------------------------------------------------
# Walk family
# ----------------------------------------------------------------------

def check_deepwalk_uniform() -> CheckResult:
    """Unweighted DeepWalk transitions are uniform over neighbors."""
    graph = _hub_graph()
    rng = np.random.default_rng(101)
    n = 30000
    out, _ = DeepWalk().sample_neighbors(graph, np.full(n, 0), 0, rng)
    counts = np.bincount(out[:, 0], minlength=graph.num_vertices)
    nbrs = graph.neighbors(0)
    assert counts.sum() == n and counts[nbrs].sum() == n
    return _gof_result("deepwalk_uniform_neighbor", "walk",
                       counts[nbrs], np.ones(nbrs.size),
                       detail=f"n={n} deg={nbrs.size}")


def check_deepwalk_weighted() -> CheckResult:
    """Weighted DeepWalk transitions follow the edge weights."""
    graph = _hub_graph().with_random_weights(seed=5)
    rng = np.random.default_rng(102)
    n = 30000
    out, _ = DeepWalk().sample_neighbors(graph, np.full(n, 0), 0, rng)
    nbrs = graph.neighbors(0)
    counts = np.bincount(out[:, 0], minlength=graph.num_vertices)
    return _gof_result("deepwalk_weighted_edge_bias", "walk",
                       counts[nbrs], graph.edge_weights(0),
                       detail=f"n={n}")


def check_node2vec_pq() -> CheckResult:
    """node2vec's second-order transitions match the p / 1/q / 1 law."""
    p, q = 2.0, 0.5
    graph = _node2vec_graph()
    app = Node2Vec(p=p, q=q, walk_length=4)
    rng = np.random.default_rng(103)
    n = 40000
    out, _ = app.sample_neighbors(
        graph, np.full(n, 1), 1, rng,
        prev_transits=np.full(n, 0, dtype=VERTEX_DTYPE))
    nbrs = graph.neighbors(1)
    counts = np.bincount(out[:, 0], minlength=graph.num_vertices)
    bias = np.array([p if u == 0 else (1.0 / q if graph.has_edge(0, u)
                                       else 1.0) for u in nbrs])
    return _gof_result("node2vec_pq_bias", "walk", counts[nbrs], bias,
                       detail=f"n={n} p={p} q={q}")


def check_ppr_geometric() -> CheckResult:
    """PPR walk lengths are geometric with the termination prob."""
    term = 0.08
    graph = _cycle_graph(64)
    app = PPR(termination_prob=term, max_steps=256)
    result = NextDoorEngine().run(app, graph, num_samples=4000, seed=104)
    arr = result.batch.as_array()
    lengths = (arr != NULL_VERTEX).sum(axis=1)
    observed, expected = binned_lengths(lengths, max_bin=28, p=term)
    return _gof_result("ppr_length_geometric", "walk", observed,
                       expected, detail=f"n=4000 term={term}")


# ----------------------------------------------------------------------
# k-hop family
# ----------------------------------------------------------------------

def check_khop_uniform() -> CheckResult:
    """Every k-hop fanout draw is uniform over the transit's
    neighbors."""
    graph = _hub_graph()
    rng = np.random.default_rng(105)
    app = KHop(fanouts=(10, 5))
    n = 3000
    out, _ = app.sample_neighbors(graph, np.full(n, 0), 0, rng)
    counts = np.bincount(out.ravel(), minlength=graph.num_vertices)
    nbrs = graph.neighbors(0)
    return _gof_result("khop_uniform_fanout", "khop", counts[nbrs],
                       np.ones(nbrs.size), detail=f"draws={out.size}")


def check_mvs_engine_uniform() -> CheckResult:
    """MVS through the full engine: 1-hop of a fixed root batch is
    uniform over the root's neighbors."""
    graph = _hub_graph()
    app = MVS(batch_size=4, fanout=1)
    roots = np.full((2000, 4), 0, dtype=VERTEX_DTYPE)
    result = NextDoorEngine().run(app, graph, roots=roots, seed=106)
    step0 = result.batch.step_vertices[0].ravel()
    step0 = step0[step0 != NULL_VERTEX]
    counts = np.bincount(step0, minlength=graph.num_vertices)
    nbrs = graph.neighbors(0)
    return _gof_result("mvs_engine_uniform_1hop", "khop", counts[nbrs],
                       np.ones(nbrs.size), detail=f"draws={step0.size}")


# ----------------------------------------------------------------------
# Collective family
# ----------------------------------------------------------------------

def check_fastgcn_importance() -> CheckResult:
    """FastGCN samples the whole graph with importance deg(v) + 1."""
    graph = _skewed_graph()
    app = FastGCN(step_size=64, num_steps=1, batch_size=4)
    rng = np.random.default_rng(107)
    roots = np.zeros((64, 4), dtype=VERTEX_DTYPE)
    batch = SampleBatch(graph, roots)
    out, _ = app.sample_from_neighborhood(
        graph, batch, None, np.zeros(65, dtype=np.int64), roots, 0, rng)
    counts = np.bincount(out.ravel(), minlength=graph.num_vertices)
    weights = graph.degrees().astype(np.float64) + 1.0
    return _gof_result("fastgcn_global_importance", "collective",
                       counts, weights, detail=f"draws={out.size}")


def check_ladies_importance() -> CheckResult:
    """LADIES draws from the combined neighborhood of the transit set
    with per-candidate importance deg(v) + 1 (the squared-column-norm
    proxy): P(v) ∝ occurrences(v) * (deg(v) + 1)."""
    graph = _skewed_graph()
    app = LADIES(step_size=64, batch_size=2)
    rng = np.random.default_rng(108)
    transit_set = np.array([0, 1], dtype=VERTEX_DTYPE)
    s = 64
    transits = np.tile(transit_set, (s, 1))
    batch = SampleBatch(graph, transits)
    out, _ = app.sample_from_neighborhood(
        graph, batch, None, None, transits, 0, rng)
    counts = np.bincount(out.ravel(), minlength=graph.num_vertices)
    weights = np.zeros(graph.num_vertices)
    for t in transit_set:
        for u in graph.neighbors(int(t)):
            weights[u] += graph.degree(int(u)) + 1.0
    return _gof_result("ladies_layer_importance", "collective",
                       counts, weights, detail=f"draws={out.size}")


def check_layer_multiset_uniform() -> CheckResult:
    """Layer sampling draws uniformly from the combined multiset:
    P(v) ∝ number of transits having v as a neighbor."""
    graph = _skewed_graph()
    app = Layer(step_size=64, max_size=10 ** 6)
    rng = np.random.default_rng(109)
    transit_set = np.array([0, 1, 13], dtype=VERTEX_DTYPE)
    s = 64
    transits = np.tile(transit_set, (s, 1))
    batch = SampleBatch(graph, transits)
    out, _ = app.sample_from_neighborhood(
        graph, batch, None, None, transits, 0, rng)
    counts = np.bincount(out.ravel(), minlength=graph.num_vertices)
    weights = np.zeros(graph.num_vertices)
    for t in transit_set:
        for u in graph.neighbors(int(t)):
            weights[u] += 1.0
    return _gof_result("layer_multiset_uniform", "collective",
                       counts, weights, detail=f"draws={out.size}")


#: Every statistical check, in report order.
STAT_CHECKS = [
    check_deepwalk_uniform,
    check_deepwalk_weighted,
    check_node2vec_pq,
    check_ppr_geometric,
    check_khop_uniform,
    check_mvs_engine_uniform,
    check_fastgcn_importance,
    check_ladies_importance,
    check_layer_multiset_uniform,
]


def run_statistical_checks(workers=None, seed: int = 0) -> List[CheckResult]:
    """Run the statistical suite.  ``workers``/``seed`` are accepted
    for runner uniformity; checks fix their own seeds so results are
    constants."""
    del workers, seed
    return [check() for check in STAT_CHECKS]
