"""Golden regression snapshots: committed fixtures pinning outputs.

Each fixture under ``golden_data/`` records, for one small
``(app, graph, seed)`` run on the NextDoor engine: content hashes of
the roots, every per-step vertex array, and any recorded adjacency —
plus the modeled charges (``seconds``, the phase breakdown,
``steps_run``).  A refactor that changes either the samples or the
model shows up as a hash/charge mismatch long before any benchmark
notices.

Regeneration (after an *intentional* change, e.g. a seed-plan
migration) is one command away and documented in ``docs/TESTING.md``::

    repro verify --suite golden --regen

The graphs are generator outputs with pinned seeds; changing the
generators therefore also invalidates fixtures — that is deliberate,
since sampler outputs are only reproducible if their inputs are.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.api.app import SamplingApp
from repro.api.apps import MVS, PPR, DeepWalk, FastGCN, KHop, LADIES, Layer, MultiRW, Node2Vec
from repro.core.engine import NextDoorEngine
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.verify.result import CheckResult

__all__ = [
    "GOLDEN_CASES",
    "golden_dir",
    "regenerate_golden",
    "run_golden_checks",
]

#: Relative tolerance for modeled-charge comparison: charges are pure
#: float arithmetic over fixed shapes, so they reproduce to fp64
#: round-off; 1e-9 allows benign reassociation, not model changes.
CHARGE_RTOL = 1e-9

_GOLDEN_SEED = 3
_WEIGHT_SEED = 7
_NUM_SAMPLES = 32

#: name -> (app factory, weighted?, run seed)
GOLDEN_CASES: Dict[str, Tuple[Callable[[], SamplingApp], bool, int]] = {
    "deepwalk": (lambda: DeepWalk(walk_length=16), True, 11),
    "node2vec": (lambda: Node2Vec(p=2.0, q=0.5, walk_length=8), True, 12),
    "ppr": (lambda: PPR(termination_prob=0.05, max_steps=64), True, 13),
    "multirw": (lambda: MultiRW(num_roots=4, walk_length=8), False, 14),
    "khop": (lambda: KHop(fanouts=(4, 2)), False, 15),
    "khop_unique": (lambda: KHop(fanouts=(6, 2), unique_per_step=True),
                    False, 16),
    "mvs": (lambda: MVS(batch_size=4), False, 17),
    "fastgcn": (lambda: FastGCN(step_size=8, batch_size=4), False, 18),
    "ladies": (lambda: LADIES(step_size=8, batch_size=4), False, 19),
    "layer": (lambda: Layer(step_size=16, max_size=48), False, 20),
}


def golden_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "golden_data")


def _golden_graph(weighted: bool) -> CSRGraph:
    graph = rmat_graph(256, 1024, seed=_GOLDEN_SEED, name="golden-rmat")
    if weighted:
        graph = graph.with_random_weights(seed=_WEIGHT_SEED)
    return graph


def _digest(arr: np.ndarray) -> str:
    h = hashlib.sha256()
    arr = np.ascontiguousarray(arr, np.int64 if arr.dtype.kind == "i"
                               else arr.dtype)   # fixtures pin values
    h.update(str(arr.shape).encode())
    h.update(str(arr.dtype).encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:32]


def compute_case(name: str, workers=None) -> Dict:
    """Run one golden case and return its snapshot dict."""
    factory, weighted, seed = GOLDEN_CASES[name]
    app = factory()
    graph = _golden_graph(weighted)
    result = NextDoorEngine(workers=workers).run(
        app, graph, num_samples=_NUM_SAMPLES, seed=seed)
    batch = result.batch
    hashes = {"roots": _digest(batch.roots)}
    for i, arr in enumerate(batch.step_vertices):
        hashes[f"step{i}"] = _digest(arr)
    if batch.edges:
        hashes["edges"] = _digest(np.concatenate(batch.edges, axis=0))
    return {
        "app": app.name,
        "graph": graph.name,
        "weighted": weighted,
        "seed": seed,
        "num_samples": _NUM_SAMPLES,
        "steps_run": result.steps_run,
        "hashes": hashes,
        "charges": {
            "seconds": result.seconds,
            "breakdown": {k: v for k, v in
                          sorted(result.breakdown.items())},
        },
    }


def _fixture_path(name: str) -> str:
    return os.path.join(golden_dir(), f"{name}.json")


def _compare_charges(expected: Dict, actual: Dict) -> List[str]:
    problems = []
    exp_s, act_s = expected["seconds"], actual["seconds"]
    if not math.isclose(exp_s, act_s, rel_tol=CHARGE_RTOL, abs_tol=0.0):
        problems.append(f"seconds {exp_s!r} -> {act_s!r}")
    exp_b, act_b = expected["breakdown"], actual["breakdown"]
    for phase in sorted(set(exp_b) | set(act_b)):
        if phase not in exp_b or phase not in act_b:
            problems.append(f"breakdown phase {phase} appeared/vanished")
        elif not math.isclose(exp_b[phase], act_b[phase],
                              rel_tol=CHARGE_RTOL, abs_tol=1e-15):
            problems.append(f"breakdown[{phase}] {exp_b[phase]!r} -> "
                            f"{act_b[phase]!r}")
    return problems


def check_case(name: str, workers=None) -> CheckResult:
    """Compare one golden case against its committed fixture."""
    path = _fixture_path(name)
    if not os.path.exists(path):
        return CheckResult(
            name=name, suite="golden", family="fixture", passed=False,
            detail=f"missing fixture {path}; run `repro verify --suite "
                   f"golden --regen`")
    with open(path) as f:
        expected = json.load(f)
    actual = compute_case(name, workers=workers)
    problems: List[str] = []
    for key in ("app", "graph", "seed", "num_samples", "steps_run"):
        if expected.get(key) != actual[key]:
            problems.append(f"{key}: {expected.get(key)!r} -> "
                            f"{actual[key]!r}")
    exp_h, act_h = expected.get("hashes", {}), actual["hashes"]
    for key in sorted(set(exp_h) | set(act_h)):
        if exp_h.get(key) != act_h.get(key):
            problems.append(f"hash[{key}] changed")
    problems += _compare_charges(expected.get("charges", {}),
                                 actual["charges"])
    return CheckResult(
        name=name, suite="golden", family="fixture",
        passed=not problems,
        detail="; ".join(problems[:4]) if problems
        else f"{len(act_h)} arrays + charges pinned")


def run_golden_checks(workers=None, seed: int = 0) -> List[CheckResult]:
    del seed  # fixtures pin their own seeds
    return [check_case(name, workers=workers) for name in GOLDEN_CASES]


def regenerate_golden(workers=None) -> List[str]:
    """Rewrite every fixture from the current implementation; returns
    the written paths."""
    os.makedirs(golden_dir(), exist_ok=True)
    written = []
    for name in GOLDEN_CASES:
        snapshot = compute_case(name, workers=workers)
        path = _fixture_path(name)
        with open(path, "w") as f:
            json.dump(snapshot, f, indent=1, sort_keys=True)
            f.write("\n")
        written.append(path)
    return written
