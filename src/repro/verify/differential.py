"""Differential testing against the reference ``next`` path.

Every engine class samples the same bits (:mod:`repro.verify.identity`
checks that over its lattice), so what is left to diff here is the one
path that consumes the chunked RNG plan in another pair order: the
reference ``next`` loops (``NextDoor-ref``, :func:`reference_view`).
For one ``(app, graph, seed)`` the suite demands identical roots and
shapes, the structural invariants below, and a chi-square homogeneity
test of its pooled vertex-visit histogram against NextDoor's.

The structural invariants act as an oracle that does not share code
with the samplers: every walk hop must be a graph edge, every k-hop
vertex must come from its transit's adjacency list, every
collectively-selected vertex must lie in the combined neighborhood,
and ``unique`` steps must contain no duplicate.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api.app import SamplingApp
from repro.api.apps import MVS, PPR, DeepWalk, FastGCN, KHop, LADIES, Layer, MultiRW, Node2Vec
from repro.api.sample import SampleBatch
from repro.api.types import INF_STEPS, NULL_VERTEX, SamplingType
from repro.core.engine import NextDoorEngine
from repro.graph.csr import VERTEX_DTYPE, CSRGraph
from repro.graph.generators import erdos_renyi_graph, rmat_graph
from repro.verify.result import CheckResult
from repro.verify.stats import ALPHA, chi_square_homogeneity

__all__ = ["DIFF_APPS", "DIFF_GRAPHS", "canonical_batch", "check_invariants",
           "diff_batches", "differential_case", "reference_problems",
           "reference_view", "run_differential_checks"]

#: Small-parameter app factories for differential runs (paper-shaped,
#: sized for seconds not minutes).
DIFF_APPS: Dict[str, Callable[[], SamplingApp]] = {
    "DeepWalk": lambda: DeepWalk(walk_length=8),
    "node2vec": lambda: Node2Vec(p=2.0, q=0.5, walk_length=6),
    "PPR": lambda: PPR(termination_prob=0.1, max_steps=40),
    "MultiRW": lambda: MultiRW(num_roots=4, walk_length=6),
    "k-hop": lambda: KHop(fanouts=(4, 2)),
    "k-hop-unique": lambda: KHop(fanouts=(6, 2), unique_per_step=True),
    "MVS": lambda: MVS(batch_size=4),
    "FastGCN": lambda: FastGCN(step_size=8, batch_size=4),
    "LADIES": lambda: LADIES(step_size=8, batch_size=4),
    "Layer": lambda: Layer(step_size=16, max_size=48),
}

#: Apps whose per-step output order is an implementation detail (the
#: collective selections); their rows are sorted before diffing.
_ORDER_UNSPECIFIED = {"FastGCN", "LADIES", "Layer"}


#: The randomized graph pool a differential sweep runs on, by seed.
DIFF_GRAPHS: Tuple[Callable[[int], CSRGraph], ...] = (
    lambda seed: rmat_graph(256, 1024, seed=seed + 1,
                            name=f"rmat256s{seed}"),
    lambda seed: erdos_renyi_graph(128, 768, seed=seed + 2,
                                   name=f"er128s{seed}").with_random_weights(
                                       seed=seed + 3),
)


def reference_view(app: SamplingApp) -> SamplingApp:
    """``app`` as it runs through the base-class reference kernels:
    a shallow copy whose class resets both sampling hooks to
    :class:`SamplingApp`'s ``next`` loops (which read the materialised
    combined neighborhood).  Any engine runs it in the calling process
    — the dispatch gate goes by the hooks' type, and the class cannot
    be pickled."""
    cls = type(f"Reference{type(app).__name__}", (type(app),), {
        "sample_neighbors": SamplingApp.sample_neighbors,
        "sample_from_neighborhood": SamplingApp.sample_from_neighborhood,
        "needs_combined_values": True,
    })
    view = copy.copy(app)
    view.__class__ = cls
    return view


def canonical_batch(app: SamplingApp, batch: SampleBatch,
                    sort_steps: Optional[bool] = None) -> Dict[str, np.ndarray]:
    """Canonical array forms of a batch for diffing."""
    if sort_steps is None:
        sort_steps = app.name in _ORDER_UNSPECIFIED
    out: Dict[str, np.ndarray] = {"roots": batch.roots}
    for i, arr in enumerate(batch.step_vertices):
        out[f"step{i}"] = np.sort(arr, axis=1) if sort_steps else arr
    if batch.edges:
        rows = np.concatenate(batch.edges, axis=0)
        order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))
        out["edges"] = rows[order]
    return out


def diff_batches(a: Dict[str, np.ndarray],
                 b: Dict[str, np.ndarray]) -> List[str]:
    """Human-readable differences between two canonical batches."""
    problems = []
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            problems.append(f"{key}: present in only one output")
            continue
        if a[key].shape != b[key].shape:
            problems.append(f"{key}: shape {a[key].shape} vs {b[key].shape}")
        elif not np.array_equal(a[key], b[key]):
            bad = int((a[key] != b[key]).sum())
            problems.append(f"{key}: {bad} differing entries")
    return problems


# ----------------------------------------------------------------------
# Structural invariants — an oracle independent of the engines
# ----------------------------------------------------------------------

def check_invariants(app: SamplingApp, batch: SampleBatch,
                     graph: CSRGraph) -> List[str]:
    """Violation messages (empty when the batch is structurally
    sound)."""
    problems: List[str] = []
    problems += _check_vertex_ranges(batch, graph)
    if problems:
        # Out-of-range ids would crash the adjacency probes below.
        return problems
    problems += _check_unique_steps(app, batch)
    if app.sampling_type() is SamplingType.COLLECTIVE:
        problems += _check_collective_membership(app, batch, graph)
    elif type(app).transits_for_step is not SamplingApp.transits_for_step:
        # Custom transit selection (MultiRW picks a random live root
        # per step): without knowing which transit produced a vertex,
        # only the range/unique checks above apply.
        pass
    elif _is_walk(app, batch):
        problems += _check_walk_edges(batch, graph)
    else:
        problems += _check_khop_membership(app, batch, graph)
    return problems


def _is_walk(app: SamplingApp, batch: SampleBatch) -> bool:
    """Walk-shaped: every step adds one vertex to a single chain (MVS
    draws one neighbor per *batched* root, so it is k-hop-shaped
    despite m = 1)."""
    k = app.steps()
    check = range(1) if k == INF_STEPS else range(k)
    return (app.sampling_type() is SamplingType.INDIVIDUAL
            and all(app.sample_size(i) == 1 for i in check)
            and batch.roots.shape[1] == 1)


def _check_vertex_ranges(batch: SampleBatch,
                         graph: CSRGraph) -> List[str]:
    for i, arr in enumerate(batch.step_vertices):
        live = arr[arr != NULL_VERTEX]
        if live.size and (live.min() < 0
                          or live.max() >= graph.num_vertices):
            return [f"step{i}: out-of-range vertex ids"]
    return []


def _check_unique_steps(app: SamplingApp, batch: SampleBatch) -> List[str]:
    problems = []
    for i, arr in enumerate(batch.step_vertices):
        if not app.unique(i) or arr.shape[1] < 2:
            continue
        rows = np.sort(arr, axis=1)
        dup = (rows[:, 1:] == rows[:, :-1]) & (rows[:, 1:] != NULL_VERTEX)
        if dup.any():
            problems.append(
                f"step{i}: {int(dup.any(axis=1).sum())} samples with "
                f"duplicate vertices despite unique()")
    return problems


def _check_walk_edges(batch: SampleBatch, graph: CSRGraph) -> List[str]:
    """Each consecutive (u, v) of a static walk must be a graph edge."""
    arr = batch.as_array(include_roots=True)
    us, vs = arr[:, :-1].ravel(), arr[:, 1:].ravel()
    live = (us != NULL_VERTEX) & (vs != NULL_VERTEX)
    if not live.any():
        return []
    ok = graph.has_edges(us[live], vs[live])
    if not ok.all():
        return [f"walk: {int((~ok).sum())} consecutive pairs are not "
                f"graph edges"]
    return []


def _check_khop_membership(app: SamplingApp, batch: SampleBatch,
                           graph: CSRGraph) -> List[str]:
    """Each k-hop vertex must be a neighbor of the transit that drew
    it: column ``c`` of step ``i`` came from transit column
    ``c // m_i``."""
    problems = []
    for i, arr in enumerate(batch.step_vertices):
        transits = batch.roots if i == 0 else batch.step_vertices[i - 1]
        m = max(app.sample_size(i), 1)
        cols = np.arange(arr.shape[1]) // m
        cols = np.minimum(cols, transits.shape[1] - 1)
        t = transits[:, cols]
        live = (arr != NULL_VERTEX) & (t != NULL_VERTEX)
        if not live.any():
            continue
        ok = graph.has_edges(t[live], arr[live])
        if not ok.all():
            problems.append(f"step{i}: {int((~ok).sum())} vertices not "
                            f"adjacent to their transit")
    return problems


def _check_collective_membership(app: SamplingApp, batch: SampleBatch,
                                 graph: CSRGraph) -> List[str]:
    """LADIES / Layer selections must lie in the combined neighborhood
    of the sample's transits (FastGCN samples the whole graph, so only
    the range check applies)."""
    if app.name == "FastGCN":
        return []
    problems = []
    transits = batch.roots
    for i, arr in enumerate(batch.step_vertices):
        for s in range(batch.num_samples):
            t_row = transits[s]
            t_row = t_row[t_row != NULL_VERTEX]
            allowed = (np.unique(np.concatenate(
                [graph.neighbors(int(t)) for t in t_row]))
                if t_row.size else np.zeros(0, VERTEX_DTYPE))
            row = arr[s]
            row = row[row != NULL_VERTEX]
            if row.size and not np.isin(row, allowed).all():
                problems.append(
                    f"step{i} sample{s}: selection outside the combined "
                    f"neighborhood")
                break
        transits = batch.step_vertices[i]
    return problems


# ----------------------------------------------------------------------
# Differential cases
# ----------------------------------------------------------------------

def _visit_histogram(batch: SampleBatch, graph: CSRGraph) -> np.ndarray:
    """How often each vertex appears across every step (NULL slots
    dropped) — the marginal the consistency tier compares."""
    counts = np.zeros(graph.num_vertices, dtype=np.int64)
    for arr in batch.step_vertices:
        live = arr[arr != NULL_VERTEX]
        counts += np.bincount(live, minlength=graph.num_vertices)
    return counts


def reference_problems(app: SamplingApp, graph: CSRGraph,
                       batch: SampleBatch, ref: SampleBatch) -> List[str]:
    """The reference ``next`` path's batch ``ref`` against ``batch``:
    the same roots and step shapes, and structurally sound."""
    problems = [] if np.array_equal(ref.roots, batch.roots) else [
        "roots differ"]
    shapes = [a.shape for a in ref.step_vertices]
    if app.steps() != INF_STEPS and shapes != [
            a.shape for a in batch.step_vertices]:
        problems.append(f"step shapes {shapes} differ")
    return problems + check_invariants(app, ref, graph)


def differential_case(app_name: str, graph: CSRGraph, seed: int,
                      num_samples: int = 48,
                      workers: Optional[int] = None) -> CheckResult:
    """NextDoor's run of one (app, graph, seed) against the invariants,
    and the reference ``next`` path's run against NextDoor's."""
    factory = DIFF_APPS[app_name]
    app = factory()
    batch = NextDoorEngine(workers=workers).run(
        app, graph, num_samples=num_samples, seed=seed).batch
    ref = NextDoorEngine(workers=workers).run(
        reference_view(factory()), graph, num_samples=num_samples,
        seed=seed).batch
    problems = [f"NextDoor: {p}" for p in check_invariants(app, batch, graph)]
    problems += [f"NextDoor-ref: {p}"
                 for p in reference_problems(app, graph, batch, ref)]
    _, pvalue = chi_square_homogeneity(_visit_histogram(ref, graph),
                                       _visit_histogram(batch, graph))
    if pvalue < ALPHA:
        problems.append("NextDoor-ref: visit histogram diverges "
                        f"from NextDoor (p={pvalue:.3g})")
    return CheckResult(
        name=f"{app_name}@{graph.name}/seed{seed}", suite="diff",
        family=_family(app), passed=not problems,
        detail="; ".join(problems[:4]) if problems
        else "reference next path agrees")


def _family(app: SamplingApp) -> str:
    if app.sampling_type() is SamplingType.COLLECTIVE:
        return "collective"
    return "walk" if app.sample_size(0) == 1 else "khop"


def run_differential_checks(workers: Optional[int] = None,
                            seed: int = 0) -> List[CheckResult]:
    """The full differential sweep: every app × randomized graphs."""
    results = []
    for graph in (make(seed) for make in DIFF_GRAPHS):
        for app_name in DIFF_APPS:
            results.append(differential_case(app_name, graph,
                                             seed=seed + 7,
                                             workers=workers))
    return results
