"""Trace-driven autotuning search.

:func:`autotune` finds the best :class:`~repro.tune.config.TuneConfig`
for one (app, graph) pair by staged coordinate descent — one knob at a
time, keeping the best value found before moving on:

1. kernel backend (only backends importable on this host),
2. RNG-plan chunk size,
3. worker-pool in-flight cap (process-pool runs only).

Every trial is scored on measured host seconds — the minimum over
``repeats`` runs, since the minimum is the noise-robust estimator for
timing.

Every trial runs through the existing tracer (span ``tune.trial``) and
bumps ``tune.*`` metrics, so ``--stats`` and Chrome traces show the
search the same way they show production runs.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

import dataclasses

from repro.obs import events, get_metrics, trace
from repro.tune.config import TuneConfig
from repro.tune.db import TuneDB

__all__ = ["autotune", "CHUNK_CANDIDATES", "INFLIGHT_CANDIDATES"]

#: Candidate values per knob.  Small on purpose: coordinate descent
#: over these covers the regimes that matter (tiny chunks = dispatch
#: overhead, huge chunks = no pipelining).
CHUNK_CANDIDATES = (256, 1024, 4096, 16384)
INFLIGHT_CANDIDATES = (1, 2, 4)


def _default_samples(graph) -> int:
    return max(1, min(2048, graph.num_vertices))


class _Search:
    """Mutable state of one autotuning run."""

    def __init__(self, app, graph, *, budget: int, num_samples: int,
                 seed: int, workers, repeats: int, engine_cls) -> None:
        if engine_cls is None:
            from repro.core.engine import NextDoorEngine
            engine_cls = NextDoorEngine
        self.app = app
        self.graph = graph
        self.budget = budget
        self.num_samples = num_samples
        self.seed = seed
        self.workers = workers
        self.repeats = repeats
        self.engine_cls = engine_cls
        self.trials = 0
        self.history: List[Dict[str, Any]] = []
        self.best = TuneConfig()
        self.best_score = float("inf")

    # -- measurement ---------------------------------------------------

    def measure(self, config: TuneConfig) -> Dict[str, Any]:
        """Run one trial configuration ``repeats`` times; returns its
        history row: the minimum wall seconds plus the (deterministic)
        modeled seconds and device counters of the run."""
        walls = []
        modeled = float("inf")
        counters = None
        with trace.span("tune.trial", app=self.app.name,
                        graph=self.graph.name,
                        config=config.describe()) as span:
            for _ in range(self.repeats):
                engine = self.engine_cls(tune=config, workers=self.workers)
                t0 = time.perf_counter()
                result = engine.run(self.app, self.graph,
                                    num_samples=self.num_samples,
                                    seed=self.seed)
                walls.append(time.perf_counter() - t0)
                modeled = result.seconds
                if result.metrics is not None:
                    counters = result.metrics.summary()
            span.set(wall_s=min(walls), model_s=modeled)
        self.trials += 1
        metrics = get_metrics()
        metrics.counter("tune.trials").inc()
        metrics.histogram("tune.trial_seconds",
                          labels={"app": self.app.name}).observe(
            min(walls))
        events.record("tune_trial", app=self.app.name,
                      graph=self.graph.name, config=config.describe(),
                      wall_s=min(walls), model_s=modeled)
        return {"config": config.to_dict(), "wall_s": min(walls),
                "model_s": modeled, "counters": counters}

    def consider(self, config: TuneConfig) -> bool:
        """Trial ``config`` if budget remains; keep it when it wins.
        Returns True when the trial ran."""
        if self.trials >= self.budget:
            return False
        trial = self.measure(config)
        self.history.append(trial)
        if trial["wall_s"] < self.best_score:
            self.best = config
            self.best_score = trial["wall_s"]
            get_metrics().counter("tune.improvements").inc()
        get_metrics().gauge("tune.best_score").set(self.best_score)
        return True

    def sweep(self, field: str, candidates) -> None:
        """Coordinate-descent one knob over its candidate values."""
        for value in candidates:
            if getattr(self.best, field) == value:
                continue
            config = dataclasses.replace(self.best, **{field: value})
            if not self.consider(config):
                return

    def best_backend_compiled(self) -> bool:
        """Whether runs under the winning config use a compiled backend
        — what :meth:`ExecutionContext.begin_run` reads to put chunks
        on threads, where the in-flight cap does nothing."""
        from repro.native.backend import active_backend, backend_scope
        if self.best.backend is None:
            return active_backend().compiled
        with backend_scope(self.best.backend) as backend:
            return backend.compiled


def autotune(app, graph, *, db: Optional[TuneDB] = None,
             budget: int = 24, num_samples: Optional[int] = None,
             seed: int = 0, workers: Optional[int] = None,
             repeats: int = 3, engine_cls=None,
             save: bool = True) -> Dict[str, Any]:
    """Autotune one (app, graph) pair; returns a summary record.

    The best configuration found is recorded in ``db`` (created at the
    default path when not given) and saved unless ``save=False``.  The
    summary carries the baseline and tuned wall seconds, the speedup,
    the trial count, and the full trial history.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if db is None:
        db = TuneDB()
    if num_samples is None:
        num_samples = _default_samples(graph)
    search = _Search(app, graph, budget=budget, num_samples=num_samples,
                     seed=seed, workers=workers, repeats=repeats,
                     engine_cls=engine_cls)
    with trace.span("tune.search", app=app.name, graph=graph.name,
                    budget=budget):
        # Stage 0: the defaults — the baseline every speedup is against.
        search.consider(TuneConfig())
        baseline = search.best_score
        # Stage 1: kernel backend (the ones that can run here).
        from repro.native.backend import available_backends
        search.sweep("backend", [b for b in available_backends()
                                 if b != "numpy"])
        # Stage 2: RNG-plan chunk size.
        search.sweep("chunk_size", CHUNK_CANDIDATES)
        # Stage 3: pool in-flight cap — only the process pool reads it.
        if (workers is not None and workers > 0
                and not search.best_backend_compiled()):
            search.sweep("inflight", INFLIGHT_CANDIDATES)
    summary = {
        "app": app.name,
        "graph": graph.name,
        "config": search.best.to_dict(),
        "describe": search.best.describe(),
        "score": search.best_score,
        "baseline": baseline,
        "speedup": baseline / search.best_score
        if search.best_score > 0 else 0.0,
        "trials": search.trials,
        "history": search.history,
    }
    key = db.record(app.name, graph, search.best,
                    score=search.best_score, baseline=baseline,
                    trials=search.trials)
    summary["fingerprint"] = key
    if save:
        summary["db_path"] = db.save()
    get_metrics().gauge("tune.speedup").set(summary["speedup"])
    return summary
