"""Autotuner verification suite (``repro verify --suite tune``).

Two guarantees the tuning subsystem makes, each checked directly:

1. **Tuned-run identity** — a :class:`~repro.tune.TuneConfig` that
   moves every sample-invisible knob (backend, in-flight cap) produces
   the exact batch and modeled seconds of an untuned run, in-process
   and on one worker.  ``chunk_size`` is the documented exception (it
   is part of the RNG plan) and is excluded here.

2. **Database determinism** — the same (app, graph, host) always maps
   to the same fingerprint, and a save/load round trip returns the
   recorded config unchanged.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import List, Optional

import numpy as np

from repro.verify.result import CheckResult

__all__ = ["run_tune_checks"]

_SEED = 41
_VERTICES = 900
_EDGES = 5400


def _graph(weighted: bool = False):
    from repro.graph.generators import rmat_graph
    g = rmat_graph(_VERTICES, _EDGES, seed=_SEED, name="tune-rmat")
    if weighted:
        g = g.with_random_weights(seed=_SEED)
    return g


def _digest(batch) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(batch.roots).tobytes())
    for arr in batch.step_vertices:
        h.update(np.ascontiguousarray(arr).tobytes())
    for arr in batch.edges or ():
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:32]


def _tuned_identity_checks(workers: Optional[int],
                           seed: int) -> List[CheckResult]:
    from repro.api import apps
    from repro.core.engine import NextDoorEngine
    from repro.native.backend import available_backends
    from repro.tune import TuneConfig
    tuned_cfg = TuneConfig(backend=available_backends()[-1], inflight=2)
    graph = _graph(weighted=True)
    out = []
    for w in (0, 1) if workers is None else (workers,):
        expected = NextDoorEngine(workers=w).run(
            apps.DeepWalk(walk_length=8), graph, num_samples=256,
            seed=seed)
        actual = NextDoorEngine(tune=tuned_cfg, workers=w).run(
            apps.DeepWalk(walk_length=8), graph, num_samples=256,
            seed=seed)
        match = (_digest(expected.batch) == _digest(actual.batch)
                 and expected.seconds == actual.seconds)
        out.append(CheckResult(
            name=f"tuned_run_identity[w{w}]", suite="tune",
            family="config", passed=match,
            detail=f"tuned ({tuned_cfg.describe()}) run == default run"
            if match else "tuned run changed the batch or its price"))
    return out


def _db_checks(seed: int) -> List[CheckResult]:
    from repro.tune import TuneConfig, TuneDB, graph_fingerprint
    out = []
    graph = _graph()
    # Fingerprints: stable across calls, distinct across apps.
    fp = graph_fingerprint("DeepWalk", graph)
    same = graph_fingerprint("DeepWalk", graph)
    other_app = graph_fingerprint("KHop", graph)
    problems = []
    if fp != same:
        problems.append("fingerprint not deterministic")
    if fp == other_app:
        problems.append("different apps collide")
    out.append(CheckResult(
        name="db_fingerprint_deterministic", suite="tune", family="db",
        passed=not problems,
        detail="; ".join(problems) if problems
        else f"stable fingerprint {fp.split('|')[4]}"))
    # Save/load round trip preserves the recorded config and lookup
    # is deterministic for a fixed fingerprint.
    config = TuneConfig(backend="cnative", chunk_size=1024, inflight=2)
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    os.unlink(path)
    try:
        db = TuneDB(path)
        db.record("DeepWalk", graph, config, score=0.5, baseline=1.0,
                  trials=7)
        db.save()
        reloaded = TuneDB(path)
        got = reloaded.lookup("DeepWalk", graph)
        again = reloaded.lookup("DeepWalk", graph)
        problems = []
        if reloaded.validate():
            problems.append(f"schema invalid: {reloaded.validate()[0]}")
        if got != config:
            problems.append("reloaded config differs from recorded")
        if got != again:
            problems.append("repeated lookup not deterministic")
        if reloaded.lookup("KHop", graph) is not None:
            problems.append("lookup leaks across apps")
        out.append(CheckResult(
            name="db_save_load_roundtrip", suite="tune", family="db",
            passed=not problems,
            detail="; ".join(problems) if problems
            else "record -> save -> load -> lookup returns the "
                 "recorded config"))
    finally:
        if os.path.exists(path):
            os.unlink(path)
    return out


def run_tune_checks(workers: Optional[int] = None,
                    seed: int = 0) -> List[CheckResult]:
    """All autotuner checks; ``workers`` narrows the tuned-identity
    sweep to one worker count (None = 0 and 1)."""
    seed = _SEED + seed
    results = _tuned_identity_checks(workers, seed)
    results.extend(_db_checks(seed))
    return results
