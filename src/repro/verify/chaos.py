"""Chaos suite: bitwise identity under every injected fault.

Each check runs the same small workload twice — DeepWalk, a k-hop
whose second step has several transits per sample and several vertices
per transit, and LADIES (the collective transport), so a worker-side
fault lands on every shape of step a pool worker writes into a step
arena — once clean and in-process (the baseline digest), once on the
worker pool with a deterministic fault plan on ``engine.fault_plan``
(``docs/RESILIENCE.md``) — and asserts two things:

1. **Identity**: the sampled batch is hash-for-hash identical to the
   fault-free run.  Chunk purity plus the deterministic RNG plan makes
   this exact, not statistical.
2. **Recovery shape**: the runtime recovered the *intended* way — a
   lost or wedged worker was detected and its run retired the pool and
   finished in-process with one warning, an application error in a
   worker was re-run in-process without giving up the pool, a failed
   export degraded loudly, an unpicklable app stayed in-process
   silently.
   Asserted via metric deltas (``pool.worker_crashes``,
   ``pool.chunk_errors``, ``runtime.chunks_pooled``, ...) and the
   count of runs that warned they fell back to in-process execution.

Run with ``repro verify --suite chaos`` (CI runs it with
``REPRO_WORKERS=2``).
"""

from __future__ import annotations

import contextlib
import os
import warnings
from typing import Dict, List, Optional

from repro.api.apps import LADIES, DeepWalk, KHop
from repro.core.engine import NextDoorEngine
from repro.native.backend import backend_scope
from repro.obs import get_metrics
from repro.obs.metrics import scalar_of
from repro.runtime.faults import FaultPlan
from repro.runtime.pool import TIMEOUT_ENV, shutdown_pools
from repro.serve.protocol import batch_digest
from repro.verify.result import CheckResult

__all__ = ["run_chaos_checks"]

SUITE = "chaos"

#: Small enough to finish in seconds, chunked enough (6 or more
#: chunks/step) that every fault trigger has a real chunk to land on.
#: Worker-side faults aim at step 1, the k-hop's wide step.
_NUM_SAMPLES = 96
_CHUNK = 16
_WALK_LENGTH = 8
_SEED = 11

#: What ``ExecutionContext._abandon_pool`` warns, once per run.
_FALLBACK = "falling back to in-process execution"


def _chaos_graph():
    from repro.graph.generators import rmat_graph
    return rmat_graph(600, 3000, seed=7,
                      name="chaos").with_random_weights(seed=3)


def _digest(results) -> str:
    return "/".join(batch_digest(result.batch) for result in results)


def _apps():
    """The three workloads every check runs, one per step shape."""
    return (DeepWalk(walk_length=_WALK_LENGTH), KHop(fanouts=(3, 2)),
            LADIES(step_size=8, batch_size=8))


def _run(graph, workers: int, plan: Optional[str] = None) -> list:
    """One run per app; each run fires a fresh copy of ``plan``."""
    engine = NextDoorEngine(workers=workers, chunk_size=_CHUNK)
    engine.fault_plan = FaultPlan.parse(plan)
    return [engine.run(app, graph, num_samples=_NUM_SAMPLES, seed=_SEED)
            for app in _apps()]


def _metric(snapshot: Dict, name: str) -> float:
    # Histogram summaries collapse to their count; labeled families sum
    # across series.
    return scalar_of(snapshot.get(name, 0.0))


def _delta(before: Dict, after: Dict, name: str) -> float:
    return _metric(after, name) - _metric(before, name)


@contextlib.contextmanager
def _pool_timeout(seconds: Optional[str]):
    """``$REPRO_POOL_TIMEOUT`` set to ``seconds`` for one check (the
    pool reads its watchdog at call time); ``None`` leaves it alone."""
    if seconds is None:
        yield
        return
    saved = os.environ.get(TIMEOUT_ENV)
    os.environ[TIMEOUT_ENV] = seconds
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(TIMEOUT_ENV, None)
        else:
            os.environ[TIMEOUT_ENV] = saved


def _check(name: str, baseline: str, graph, workers: int, plan: str,
           expect, timeout: Optional[str] = None) -> CheckResult:
    """Run the workload under ``plan``, compare digests, then let
    ``expect(delta_fn, fallbacks, problems)`` assert the recovery shape
    (``fallbacks``: runs that warned they finished in-process)."""
    problems: List[str] = []
    before = get_metrics().snapshot()
    with warnings.catch_warnings(record=True) as caught, \
            _pool_timeout(timeout):
        warnings.simplefilter("always", RuntimeWarning)
        try:
            results = _run(graph, workers, plan)
        except Exception as exc:  # a chaos run must never error out
            return CheckResult(
                name=name, suite=SUITE, family="runtime", passed=False,
                detail=f"run raised {type(exc).__name__}: {exc}")
    after = get_metrics().snapshot()
    fallbacks = sum(_FALLBACK in str(w.message) for w in caught)
    got = _digest(results)
    if got != baseline:
        problems.append(f"samples diverged under fault "
                        f"({got} != {baseline})")
    expect(lambda metric: _delta(before, after, metric), fallbacks,
           problems)
    return CheckResult(
        name=name, suite=SUITE, family="runtime",
        passed=not problems, statistic=fallbacks,
        detail="; ".join(problems))


def _expect_lost_worker(what: str):
    """Every lost worker was counted once and cost its run the pool,
    with one warning; the runs before the loss did use the pool."""
    def expect(delta, fallbacks, problems):
        crashes = delta("pool.worker_crashes")
        if crashes < 1:
            problems.append(f"{what} was not detected as a crash")
        if fallbacks != crashes:
            problems.append(f"{fallbacks} runs fell back to in-process "
                            f"for {crashes:g} crashes (expected one "
                            "each)")
        if delta("runtime.chunks_pooled") <= 0:
            problems.append("no chunk ran pooled before the crash")
    return expect


@backend_scope("numpy")
def run_chaos_checks(workers: Optional[int] = None,
                     seed: int = 0) -> List[CheckResult]:
    """Every fault scenario; ``workers`` defaults to 2 (the pool must
    exist for worker-side faults to have anywhere to fire), and the
    backend is ``numpy`` whatever the environment says: under a
    compiled backend ``workers`` are chunk threads, with no process to
    kill, wedge or fail an export for."""
    del seed  # scenarios pin their seed: identity must be exact
    workers = workers if workers and workers >= 1 else 2
    graph = _chaos_graph()
    baseline = _digest(_run(graph, workers=0))
    results: List[CheckResult] = []

    results.append(_check(
        "worker_crash_finishes_inprocess", baseline, graph, workers,
        "kill-before-chunk:1.2", _expect_lost_worker("a killed worker")))
    results.append(_check(
        "wedged_worker_watchdog", baseline, graph, workers,
        "wedge-chunk:1.2", _expect_lost_worker("a wedged worker"),
        timeout="1.0"))

    def expect_chunk_error(delta, fallbacks, problems):
        if delta("pool.chunk_errors") < 1:
            problems.append("worker-side chunk error not recorded")
        if delta("pool.worker_crashes") or fallbacks:
            problems.append("an app exception cost the run its pool")

    results.append(_check(
        "chunk_error_runs_inprocess", baseline, graph, workers,
        "chunk-error:1.1", expect_chunk_error))

    def expect_loud_degrade(delta, fallbacks, problems):
        if fallbacks != len(_apps()):
            problems.append(f"{fallbacks} of {len(_apps())} runs warned "
                            "of the failed export")
        if get_metrics().gauge("runtime.degraded_mode").value != 1:
            problems.append("degraded-mode gauge not set on shm failure")

    results.append(_check(
        "shm_failure_degrades_loudly", baseline, graph, workers,
        "shm-export-fail", expect_loud_degrade))

    def expect_silent_inprocess(delta, fallbacks, problems):
        if delta("runtime.chunks_pooled") != 0:
            problems.append("unpicklable app still reached the pool")
        if fallbacks or get_metrics().gauge(
                "runtime.degraded_mode").value != 0:
            problems.append("unpicklable app flagged as degradation")

    results.append(_check(
        "unpicklable_app_stays_inprocess", baseline, graph, workers,
        "unpicklable-app", expect_silent_inprocess))

    shutdown_pools()
    return results

