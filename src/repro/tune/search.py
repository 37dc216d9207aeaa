"""Trace-driven autotuning search.

:func:`autotune` finds the best :class:`~repro.tune.config.TuneConfig`
for one (app, graph) pair by staged coordinate descent — one knob at a
time, keeping the best value found before moving on:

1. kernel backend (only backends importable on this host),
2. RNG-plan chunk size,
3. locality-aware CSR relabeling,
4. kernel-assignment thresholds (sub-warp / thread-block boundaries),
5. worker-pool in-flight cap (pooled runs only).

Two objectives: ``wallclock`` minimises measured host seconds (min over
``repeats`` runs, since the minimum is the noise-robust estimator for
timing), ``model`` minimises the modeled GPU seconds the engine prices.
The kernel thresholds only exist inside the performance model, so under
the ``wallclock`` objective they are scored on modeled seconds and the
winner rides along in the final config — it cannot hurt the measured
time.

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

__all__ = ["autotune", "CHUNK_CANDIDATES", "SUBWARP_CANDIDATES",
           "BLOCK_CANDIDATES", "INFLIGHT_CANDIDATES"]

#: Candidate values per knob.  Small on purpose: coordinate descent
#: over these covers the regimes that matter (tiny chunks = dispatch
#: overhead, huge chunks = no pipelining; thresholds bracket the
#: paper's 32 / 1024 defaults).
CHUNK_CANDIDATES = (256, 1024, 4096, 16384)
SUBWARP_CANDIDATES = (8, 16, 32, 64)
#: 1024 threads/block is the hardware ceiling (32 warps x 32 lanes);
#: larger blocks are rejected by the kernel model.
BLOCK_CANDIDATES = (128, 256, 512, 1024)
INFLIGHT_CANDIDATES = (1, 2, 4)


def _default_samples(graph) -> int:
    return max(1, min(2048, graph.num_vertices))


class _Search:
    """Mutable state of one autotuning run."""

    def __init__(self, app, graph, *, objective: str, budget: int,
                 num_samples: int, seed: int, workers, repeats: int,
                 engine_cls) -> None:
        if engine_cls is None:
            from repro.core.engine import NextDoorEngine
            engine_cls = NextDoorEngine
        self.app = app
        self.graph = graph
        self.objective = objective
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
        self.best_model = float("inf")

    # -- measurement ---------------------------------------------------

    def measure(self, config: TuneConfig) -> Dict[str, float]:
        """Run one trial configuration; returns wall + modeled seconds.

        ``wallclock`` trials repeat and keep the minimum; ``model``
        trials run once (the model is deterministic).
        """
        repeats = self.repeats if self.objective == "wallclock" else 1
        walls = []
        modeled = float("inf")
        counters = None
        with trace.span("tune.trial", app=self.app.name,
                        graph=self.graph.name,
                        config=config.describe()) as span:
            for _ in range(max(1, repeats)):
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
        return {"wall": min(walls), "model": modeled,
                "counters": counters}

    def score_of(self, measured: Dict[str, float]) -> float:
        return measured["wall" if self.objective == "wallclock"
                        else "model"]

    def consider(self, config: TuneConfig) -> bool:
        """Trial ``config`` if budget remains; keep it when it wins.
        Returns True when the trial ran."""
        if self.trials >= self.budget:
            return False
        try:
            measured = self.measure(config)
        except ValueError:
            # The engine model rejected the configuration (e.g. a block
            # shape the GPU spec cannot launch) — infeasible, skip it.
            get_metrics().counter("tune.infeasible").inc()
            return True
        score = self.score_of(measured)
        self.history.append({"config": config.to_dict(),
                             "wall_s": measured["wall"],
                             "model_s": measured["model"],
                             "counters": measured["counters"],
                             "score": score})
        if score < self.best_score:
            self.best = config
            self.best_score = score
            self.best_model = measured["model"]
            get_metrics().counter("tune.improvements").inc()
        get_metrics().gauge("tune.best_score").set(self.best_score)
        return True

    def sweep(self, field: str, candidates) -> None:
        """Coordinate-descent one knob over its candidate values."""
        for value in candidates:
            if getattr(self.best, field) == value:
                continue
            try:
                config = dataclasses.replace(self.best, **{field: value})
            except ValueError:
                continue  # e.g. block_limit < subwarp_limit
            if not self.consider(config):
                return

    # -- threshold sub-search (model objective) ------------------------

    def sweep_thresholds(self) -> None:
        """Pick the kernel thresholds that minimise *modeled* seconds.

        Under the ``model`` objective this is ordinary descent.  Under
        ``wallclock`` the thresholds cannot move the measured time (they
        only exist inside the performance model), so they are scored on
        the trials' modeled seconds and merged into the winner.
        """
        if self.objective == "model":
            self.sweep("subwarp_limit", SUBWARP_CANDIDATES)
            self.sweep("block_limit", BLOCK_CANDIDATES)
            return
        best_model = self.best_model
        best_thresholds = (self.best.subwarp_limit, self.best.block_limit)
        for field, candidates in (("subwarp_limit", SUBWARP_CANDIDATES),
                                  ("block_limit", BLOCK_CANDIDATES)):
            for value in candidates:
                if self.trials >= self.budget:
                    break
                current = dict(zip(("subwarp_limit", "block_limit"),
                                   best_thresholds))
                if current[field] == value:
                    continue
                current[field] = value
                if current["block_limit"] < current["subwarp_limit"]:
                    continue
                config = dataclasses.replace(self.best, **current)
                try:
                    measured = self.measure(config)
                except ValueError:
                    get_metrics().counter("tune.infeasible").inc()
                    continue
                self.history.append({"config": config.to_dict(),
                                     "wall_s": measured["wall"],
                                     "model_s": measured["model"],
                                     "counters": measured["counters"],
                                     "score": measured["model"]})
                if measured["model"] < best_model:
                    best_model = measured["model"]
                    best_thresholds = (config.subwarp_limit,
                                       config.block_limit)
        self.best = dataclasses.replace(
            self.best, subwarp_limit=best_thresholds[0],
            block_limit=best_thresholds[1])
        self.best_model = best_model


def autotune(app, graph, *, db: Optional[TuneDB] = None,
             objective: str = "wallclock", budget: int = 24,
             num_samples: Optional[int] = None, seed: int = 0,
             workers: Optional[int] = None, repeats: int = 3,
             engine_cls=None, save: bool = True) -> Dict[str, Any]:
    """Autotune one (app, graph) pair; returns a summary record.

    The best configuration found is recorded in ``db`` (created at the
    default path when not given) and saved unless ``save=False``.  The
    summary carries the baseline and tuned objective values, the
    speedup, the trial count, and the full trial history.
    """
    if objective not in ("wallclock", "model"):
        raise ValueError(
            f"objective must be 'wallclock' or 'model', got {objective!r}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if db is None:
        db = TuneDB()
    if num_samples is None:
        num_samples = _default_samples(graph)
    search = _Search(app, graph, objective=objective, budget=budget,
                     num_samples=num_samples, seed=seed, workers=workers,
                     repeats=repeats, engine_cls=engine_cls)
    with trace.span("tune.search", app=app.name, graph=graph.name,
                    objective=objective, budget=budget):
        # Stage 0: the defaults — the baseline every speedup is against.
        search.consider(TuneConfig())
        baseline = search.history[0]["score"] if search.history else None
        # Stage 1: kernel backend (the ones that can run here).
        from repro.native.backend import available_backends
        search.sweep("backend", [b for b in available_backends()
                                 if b != "numpy"])
        # Stage 2: RNG-plan chunk size.
        search.sweep("chunk_size", CHUNK_CANDIDATES)
        # Stage 3: locality-aware relabeling.
        from repro.graph.relabel import RELABEL_ORDERS
        search.sweep("relabel", RELABEL_ORDERS)
        # Stage 4: kernel-assignment thresholds (model-scored).
        search.sweep_thresholds()
        # Stage 5: pool in-flight cap — meaningless without a pool.
        if workers is not None and workers > 0:
            search.sweep("inflight", INFLIGHT_CANDIDATES)
    if baseline is None:  # pragma: no cover - budget < 1 is rejected
        raise RuntimeError("no trials ran")
    summary = {
        "app": app.name,
        "graph": graph.name,
        "objective": objective,
        "config": search.best.to_dict(),
        "describe": search.best.describe(),
        "score": search.best_score,
        "baseline": baseline,
        "speedup": baseline / search.best_score
        if search.best_score > 0 else 0.0,
        "trials": search.trials,
        "history": search.history,
    }
    key = db.record(app.name, graph, search.best, objective=objective,
                    score=search.best_score, baseline=baseline,
                    trials=search.trials)
    summary["fingerprint"] = key
    if save:
        summary["db_path"] = db.save()
    get_metrics().gauge("tune.speedup").set(summary["speedup"])
    return summary
