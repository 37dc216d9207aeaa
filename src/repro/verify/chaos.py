"""Chaos suite: a fault fails the run cleanly, and a re-run is identical.

Each check runs the same small workload — DeepWalk, a k-hop whose
second step has several transits per sample and several vertices per
transit, and LADIES (a collective step) — with a ``chunk-error`` fault
on ``engine.fault_plan`` (``docs/RESILIENCE.md``) aimed at chunk 1 of
step 1, then again without it, and compares with a fault-free
``workers=0`` baseline:

1. **Clean failure**: every faulted run raises ``FaultInjected`` out of
   ``engine.run``, after every started chunk has returned, whichever
   thread ran the chunk.
2. **Identity**: the re-run, on the same engine, is hash-for-hash the
   fault-free batch.  Chunk purity plus the deterministic RNG plan
   makes this exact, not statistical: a failed run leaves nothing
   behind.

Run with ``repro verify --suite chaos`` (CI runs it with
``--workers 2``, i.e. on chunk threads).
"""

from __future__ import annotations

from typing import List, Optional

from repro.api.apps import LADIES, DeepWalk, KHop
from repro.core.engine import NextDoorEngine
from repro.runtime.faults import FaultInjected, FaultPlan
from repro.runtime.rngplan import CHUNK_PAIRS
from repro.serve.protocol import batch_digest
from repro.verify.result import CheckResult

__all__ = ["run_chaos_checks"]

SUITE = "chaos"

#: Small enough to finish in seconds, large enough that step 1 has at
#: least two chunks of ``CHUNK_PAIRS`` pairs (LADIES: of sample rows),
#: so the fault has a real chunk to land on.
_NUM_SAMPLES = 2 * CHUNK_PAIRS
_WALK_LENGTH = 8
_SEED = 11
_FAULT = "chunk-error:1.1"


def _chaos_graph():
    from repro.graph.generators import rmat_graph
    return rmat_graph(600, 3000, seed=7,
                      name="chaos").with_random_weights(seed=3)


def _apps():
    """The three workloads every check runs, one per step shape."""
    return (DeepWalk(walk_length=_WALK_LENGTH), KHop(fanouts=(3, 2)),
            LADIES(step_size=8, batch_size=8))


def _digest(engine: NextDoorEngine, graph) -> str:
    return "/".join(
        batch_digest(engine.run(app, graph, num_samples=_NUM_SAMPLES,
                                seed=_SEED).batch)
        for app in _apps())


def _result(name: str, problems: List[str]) -> CheckResult:
    return CheckResult(name=name, suite=SUITE, family="runtime",
                       passed=not problems, detail="; ".join(problems))


def run_chaos_checks(workers: Optional[int] = None,
                     seed: int = 0) -> List[CheckResult]:
    """Both checks; ``workers`` defaults to 2 chunk threads."""
    del seed  # the scenario pins its seed: identity must be exact
    workers = workers if workers and workers >= 1 else 2
    graph = _chaos_graph()
    baseline = _digest(NextDoorEngine(workers=0), graph)
    engine = NextDoorEngine(workers=workers)

    problems: List[str] = []
    engine.fault_plan = FaultPlan.parse(_FAULT)
    for app in _apps():
        try:
            engine.run(app, graph, num_samples=_NUM_SAMPLES, seed=_SEED)
        except FaultInjected as exc:
            if "step 1, chunk 1" not in str(exc):
                problems.append(f"{app.name}: wrong fault fired ({exc})")
        except Exception as exc:  # any other error is a failed check
            problems.append(f"{app.name}: raised "
                            f"{type(exc).__name__}: {exc}")
        else:
            problems.append(f"{app.name}: the run finished despite "
                            f"{_FAULT}")
    results = [_result("chunk_error_fails_the_run", problems)]

    engine.fault_plan = None
    problems = []
    try:
        got = _digest(engine, graph)
    except Exception as exc:
        got = None
        problems.append(f"re-run raised {type(exc).__name__}: {exc}")
    if got is not None and got != baseline:
        problems.append(f"re-run diverged ({got} != {baseline})")
    results.append(_result("rerun_is_the_fault_free_run", problems))
    return results
