"""Chaos suite: bitwise identity under every injected fault.

Each check runs the same small workload twice — DeepWalk, a k-hop
whose second step has several transits per sample and several vertices
per transit, and LADIES (the collective transport), so a worker-side
fault lands on every shape of step a pool worker writes into a step
arena — once clean and in-process (the baseline digest), once on the
worker pool with a deterministic fault plan active
(``docs/RESILIENCE.md``) — and asserts two things:

1. **Identity**: the sampled batch is hash-for-hash identical to the
   fault-free run.  Chunk purity plus the deterministic RNG plan makes
   this exact, not statistical.
2. **Resilience shape**: the runtime recovered the *intended* way —
   a crash was healed by a respawn (not silent whole-run degradation),
   a poison chunk was quarantined, a parent-side failure degraded
   loudly, an interrupted ``--checkpoint`` run resumed from disk.
   Asserted via metric deltas (``pool.worker_respawns``,
   ``pool.chunks_quarantined``, ``runtime.degraded_mode``, ...).

Run with ``repro verify --suite chaos`` (CI runs it with
``REPRO_WORKERS=2``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import warnings
from typing import Dict, List, Optional

from repro.api.apps import LADIES, DeepWalk, KHop
from repro.core.engine import NextDoorEngine
from repro.native.backend import backend_scope
from repro.obs import get_metrics
from repro.obs.metrics import scalar_of
from repro.runtime.faults import PLAN_ENV, FaultInjected
from repro.runtime.pool import RESPAWN_ENV, TIMEOUT_ENV, shutdown_pools
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

_ENV_KEYS = (PLAN_ENV, TIMEOUT_ENV, RESPAWN_ENV)


def _chaos_graph():
    from repro.graph.generators import rmat_graph
    return rmat_graph(600, 3000, seed=7,
                      name="chaos").with_random_weights(seed=3)


def _digest(results) -> str:
    return "/".join(batch_digest(result.batch) for result in results)


def _apps():
    """DeepWalk first: it is the run ``interrupt-step:2`` stops."""
    return (DeepWalk(walk_length=_WALK_LENGTH), KHop(fanouts=(3, 2)),
            LADIES(step_size=8, batch_size=8))


def _run(graph, workers: int, checkpoint_dir: Optional[str] = None,
         resume: bool = False) -> list:
    """One run per app, each under a fresh parse of the fault plan."""
    engine = NextDoorEngine(workers=workers, chunk_size=_CHUNK,
                            checkpoint_dir=checkpoint_dir, resume=resume)
    return [engine.run(app, graph, num_samples=_NUM_SAMPLES, seed=_SEED)
            for app in _apps()]


def _metric(snapshot: Dict, name: str) -> float:
    # Histogram summaries collapse to their count; labeled families sum
    # across series.
    return scalar_of(snapshot.get(name, 0.0))


def _delta(before: Dict, after: Dict, name: str) -> float:
    return _metric(after, name) - _metric(before, name)


class _FaultEnv:
    """Set/restore the fault-plan + pool env vars around one check."""

    def __init__(self, **env: Optional[str]) -> None:
        self.env = env
        self.saved: Dict[str, Optional[str]] = {}

    def __enter__(self) -> "_FaultEnv":
        for key in _ENV_KEYS:
            self.saved[key] = os.environ.pop(key, None)
        for key, value in self.env.items():
            if value is not None:
                os.environ[key] = value
        return self

    def __exit__(self, *exc) -> None:
        for key in _ENV_KEYS:
            os.environ.pop(key, None)
            if self.saved.get(key) is not None:
                os.environ[key] = self.saved[key]


def _check(name: str, baseline: str, graph, workers: int,
           env: Dict[str, str], expect) -> CheckResult:
    """Run the workload under ``env``, compare digests, then let
    ``expect(delta_fn, problems)`` assert the resilience shape."""
    problems: List[str] = []
    before = get_metrics().snapshot()
    with _FaultEnv(**env):
        try:
            results = _run(graph, workers)
        except Exception as exc:  # a chaos run must never error out
            return CheckResult(
                name=name, suite=SUITE, family="runtime", passed=False,
                detail=f"run raised {type(exc).__name__}: {exc}")
    after = get_metrics().snapshot()
    got = _digest(results)
    if got != baseline:
        problems.append(f"samples diverged under fault "
                        f"({got} != {baseline})")
    expect(lambda metric: _delta(before, after, metric), problems)
    degraded = _metric(after, "runtime.degraded_mode")
    return CheckResult(
        name=name, suite=SUITE, family="runtime",
        passed=not problems, statistic=degraded,
        detail="; ".join(problems))


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
    with _FaultEnv():
        clean = _run(graph, workers=0)
    baseline = _digest(clean)
    results: List[CheckResult] = []

    def expect_respawn_heals(delta, problems):
        if delta("pool.worker_respawns") < 1:
            problems.append("no worker respawn recorded")
        if delta("runtime.chunks_pooled") <= 0:
            problems.append("no chunks ran pooled after the crash "
                            "(silent whole-run degradation)")
        if get_metrics().gauge("runtime.degraded_mode").value != 0:
            problems.append("run degraded instead of respawning")

    results.append(_check(
        "kill_after_chunk_respawns", baseline, graph, workers,
        {PLAN_ENV: "kill-after-chunk:1.3"}, expect_respawn_heals))

    def expect_quarantine(delta, problems):
        if delta("pool.chunks_quarantined") < 1:
            problems.append("poison chunk was not quarantined")
        if get_metrics().gauge("runtime.degraded_mode").value != 0:
            problems.append("run degraded instead of quarantining")

    results.append(_check(
        "poison_chunk_quarantined", baseline, graph, workers,
        {PLAN_ENV: "kill-before-chunk:1.4"}, expect_quarantine))

    def expect_crash_detected(delta, problems):
        if delta("pool.worker_crashes") < 1:
            problems.append("pipe EOF was not detected as a crash")
        if get_metrics().gauge("runtime.degraded_mode").value != 0:
            problems.append("run degraded instead of respawning")

    results.append(_check(
        "pipe_eof_respawns", baseline, graph, workers,
        {PLAN_ENV: "pipe-eof:1.2"}, expect_crash_detected))

    def expect_watchdog(delta, problems):
        if delta("pool.worker_crashes") < 1:
            problems.append("watchdog never fired on the wedged worker")
        if get_metrics().gauge("runtime.degraded_mode").value != 0:
            problems.append("run degraded instead of respawning")

    results.append(_check(
        "wedged_worker_watchdog", baseline, graph, workers,
        {PLAN_ENV: "wedge-chunk:1.2", TIMEOUT_ENV: "1.0",
         RESPAWN_ENV: "8"}, expect_watchdog))

    def expect_chunk_error(delta, problems):
        if delta("pool.chunk_errors") < 1:
            problems.append("worker-side chunk error not recorded")
        if get_metrics().gauge("runtime.degraded_mode").value != 0:
            problems.append("run degraded on an app exception")

    results.append(_check(
        "chunk_error_runs_inprocess", baseline, graph, workers,
        {PLAN_ENV: "chunk-error:1.1"}, expect_chunk_error))

    def expect_loud_degrade(delta, problems):
        if get_metrics().gauge("runtime.degraded_mode").value != 1:
            problems.append("degraded-mode gauge not set on shm failure")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        results.append(_check(
            "shm_failure_degrades_loudly", baseline, graph, workers,
            {PLAN_ENV: "shm-export-fail"}, expect_loud_degrade))

    def expect_silent_inprocess(delta, problems):
        if delta("runtime.chunks_pooled") != 0:
            problems.append("unpicklable app still reached the pool")
        if get_metrics().gauge("runtime.degraded_mode").value != 0:
            problems.append("unpicklable app flagged as degradation")

    results.append(_check(
        "unpicklable_app_stays_inprocess", baseline, graph, workers,
        {PLAN_ENV: "unpicklable-app"}, expect_silent_inprocess))

    results.append(_checkpoint_resume_check(baseline, graph, workers))
    shutdown_pools()
    return results


def _checkpoint_resume_check(baseline: str, graph,
                             workers: int) -> CheckResult:
    """Interrupt a ``--checkpoint`` run deterministically at step 2,
    then resume: the batch must match the uninterrupted digest and at
    least one chunk must come from disk."""
    name = "checkpoint_resume_identity"
    ckpt = tempfile.mkdtemp(prefix="repro-chaos-ckpt-")
    problems: List[str] = []
    try:
        with _FaultEnv(**{PLAN_ENV: "interrupt-step:2"}):
            try:
                _run(graph, workers, checkpoint_dir=ckpt)
                problems.append("interrupt-step fault never fired")
            except FaultInjected:
                pass
        before = get_metrics().snapshot()
        with _FaultEnv():
            resumed = _run(graph, workers, checkpoint_dir=ckpt,
                           resume=True)
        after = get_metrics().snapshot()
        got = _digest(resumed)
        if got != baseline:
            problems.append(f"resumed samples diverged "
                            f"({got} != {baseline})")
        loaded = _delta(before, after, "checkpoint.chunks_loaded")
        if loaded < 1:
            problems.append("resume recomputed everything "
                            "(no chunk loaded from the checkpoint)")
    except Exception as exc:
        problems.append(f"check raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(ckpt, ignore_errors=True)
    return CheckResult(name=name, suite=SUITE, family="runtime",
                       passed=not problems, detail="; ".join(problems))
