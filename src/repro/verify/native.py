"""Native-backend parity suite: compiled kernels vs the numpy backend.

Two layers of evidence that the compiled backend (``cnative``) is a
pure speedup:

1. **Golden fixtures** — every committed golden snapshot (sample
   digests *and* modeled charges, pinned by the numpy implementation)
   is recomputed under the compiled backend.  The fixtures don't know
   backends exist, so a pass means bit-for-bit agreement with numpy.

2. **Pooled multi-chunk identity** — the golden graphs are small
   enough that a step fits one RNG-plan chunk, so layer 1 never
   exercises worker dispatch.  This layer runs walk, k-hop and
   collective (LADIES, edges included) workloads
   sized to span multiple chunks at ``--workers 1`` and ``--workers
   2`` and asserts the batch digest and modeled charges match the
   numpy backend at the same worker count (which PR 4's suites already
   tie to workers=0).

On a host without a C toolchain there is nothing to compare and the
suite fails with a single ``backends`` check saying so.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.native.backend import available_backends, backend_scope
from repro.serve.protocol import batch_digest
from repro.verify.result import CheckResult

__all__ = ["run_native_checks", "POOLED_CASES"]

_POOLED_SEED = 29
_POOLED_VERTICES = 1500
_POOLED_EDGES = 9000

#: name -> (app factory, weighted?, num_samples).  Sizes chosen so at
#: least one step exceeds DEFAULT_CHUNK_PAIRS and the pool really
#: dispatches (DeepWalk: 6000 pairs/step; k-hop step 1: 4 * 2048;
#: LADIES: four collective chunks of 128 sample rows, the last ragged —
#: chunked on the calling thread under chunk threads, pooled under numpy).
POOLED_CASES = {
    "deepwalk_pooled": (
        lambda: _apps().DeepWalk(walk_length=12), True, 6000),
    "khop_pooled": (
        lambda: _apps().KHop(fanouts=(4, 2)), False, 2048),
    "ladies_pooled": (
        lambda: _apps().LADIES(step_size=16, batch_size=16), False, 400),
}


def _apps():
    from repro.api import apps
    return apps


def _pooled_run(factory, weighted: bool, num_samples: int,
                workers: int) -> Dict:
    from repro.core.engine import NextDoorEngine
    from repro.graph.generators import rmat_graph
    graph = rmat_graph(_POOLED_VERTICES, _POOLED_EDGES,
                       seed=_POOLED_SEED, name="native-parity-rmat")
    if weighted:
        graph = graph.with_random_weights(seed=_POOLED_SEED)
    result = NextDoorEngine(workers=workers).run(
        factory(), graph, num_samples=num_samples, seed=_POOLED_SEED)
    return {
        "digest": batch_digest(result.batch),
        "charges": dataclasses.asdict(result.metrics),
        "seconds": result.seconds,
    }


def _golden_checks(backend: str, workers) -> List[CheckResult]:
    from repro.verify import golden
    out = []
    with backend_scope(backend):
        for case in golden.GOLDEN_CASES:
            r = golden.check_case(case, workers=workers)
            out.append(CheckResult(
                name=f"{case}[{backend}]", suite="native",
                family=backend, passed=r.passed,
                detail=r.detail if not r.passed
                else "matches numpy-pinned fixture"))
    return out


def _pooled_checks(backend: str) -> List[CheckResult]:
    out = []
    for case, (factory, weighted, n) in POOLED_CASES.items():
        for workers in (1, 2):
            with backend_scope("numpy"):
                expected = _pooled_run(factory, weighted, n, workers)
            with backend_scope(backend):
                actual = _pooled_run(factory, weighted, n, workers)
            problems = []
            if expected["digest"] != actual["digest"]:
                problems.append("sample digest differs")
            if expected["charges"] != actual["charges"]:
                problems.append("modeled charges differ")
            if expected["seconds"] != actual["seconds"]:
                problems.append("modeled seconds differ")
            out.append(CheckResult(
                name=f"{case}[{backend},w{workers}]", suite="native",
                family=backend, passed=not problems,
                detail="; ".join(problems) if problems
                else f"digest {actual['digest'][:12]} == numpy"))
    return out


def run_native_checks(workers: Optional[int] = None,
                      seed: int = 0) -> List[CheckResult]:
    """Golden-fixture + pooled parity for the compiled backend, when
    this host can build it.  ``workers`` applies to the golden
    re-checks; the pooled checks pin workers 1 and 2 themselves.
    ``seed`` is unused (every case pins its own seed)."""
    del seed
    results: List[CheckResult] = []
    backends = [b for b in available_backends() if b != "numpy"]
    for backend in backends:
        results.extend(_golden_checks(backend, workers))
        results.extend(_pooled_checks(backend))
    if not results:
        results.append(CheckResult(
            name="backends", suite="native", family="setup",
            passed=False,
            detail="no compiled backend runnable on this host"))
    return results
