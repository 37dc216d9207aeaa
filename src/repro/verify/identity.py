"""The identity lattice: every configuration samples the same bits.

One contract, stated once.  For a workload, every kernel backend,
chunk-thread count, engine class, device count and the served path
sample the batch of the numpy / ``workers=0`` / direct NextDoor run,
and every engine's price is that run priced as the engine
(``SamplingResult.priced_as``, itself the engine's own numpy /
``workers=0`` run at that device count) — also when the run follows a
failed one (a ``chunk-error`` fault, a tripped cancel scope) on the
same engine or daemon.

:func:`cells` lists the valid cells of :func:`axes` only: more than
one device for the GPU engines; served cells are NextDoor at one
device, unpriced (the daemon prices nothing), on the workloads the
daemon registers.  An engine that cannot express a workload
(KnightKing: walks only) is a cell too, and must refuse alike on every
other axis.  Inputs are sized from ``CHUNK_PAIRS``: step 1 of every
workload, the faulted step, covers at least two chunks (pairs, or a
collective step's rows), so chunk threads share it and the fault lands
on a chunk that exists (``tests/test_chunk_spans.py``).

:func:`check_cell` is the one oracle.  ``repro verify --suite
identity`` runs every cell, one check per (workload, backend, workers,
path, disturbance); ``tests/test_identity.py`` samples the cells.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro import baselines
from repro.api.apps import LADIES, PPR, DeepWalk, KHop, Node2Vec
from repro.bench.runner import paper_app, paper_graph
from repro.core.engine import NextDoorEngine
from repro.core.large_graph import LargeGraphNextDoor
from repro.graph.generators import rmat_graph
from repro.native.backend import available_backends, backend_scope
from repro.runtime import rngplan
from repro.runtime.cancel import CancelScope
from repro.runtime.faults import FaultPlan
from repro.serve.protocol import batch_digest
from repro.verify.result import CheckResult

__all__ = ["WORKLOADS", "ENGINES", "FAULT", "Cell", "Workload", "axes",
           "cells", "check_cell", "check_count", "run_identity_checks"]

#: Aimed at the second chunk of step 1, which every workload fills.
FAULT = "chunk-error:1.1"
#: The cancel scope trips at its third between-chunk check: mid-run.
CANCEL_AFTER_CHECKS = 3


class Workload(NamedTuple):
    app: Callable
    graph: Callable
    samples: int
    seed: int = 17
    #: The daemon's name for the app, when it serves it (on ``ppi``).
    served: Optional[str] = None


@functools.lru_cache(maxsize=None)
def _graph(weighted: bool):
    graph = rmat_graph(600, 3000, seed=7, name="identity-rmat")
    return graph.with_random_weights(seed=3) if weighted else graph


_CHUNK, _ROWS = rngplan.CHUNK_PAIRS, rngplan.RNGPlan(0).rows_per_chunk

#: name -> workload, one per kernel path: the weighted draw, node2vec's
#: rejection rounds, an INF-step walk, the uniform draw (the paper's
#: k-hop on ``ppi``, served), the unique pass, a collective step.
WORKLOADS: Dict[str, Workload] = {
    "deepwalk": Workload(lambda: DeepWalk(walk_length=4),
                         lambda: _graph(True), 2 * _CHUNK),
    "node2vec": Workload(lambda: Node2Vec(p=2.0, q=0.5, walk_length=3),
                         lambda: _graph(True), 2 * _CHUNK),
    "ppr": Workload(lambda: PPR(termination_prob=0.2, max_steps=6),
                    lambda: _graph(True), 3 * _CHUNK),
    "khop": Workload(lambda: paper_app("k-hop"),
                     functools.lru_cache()(
                         lambda: paper_graph("ppi", "k-hop", seed=17)),
                     2 * _CHUNK // 25 + 1, served="k-hop"),
    "khop_unique": Workload(
        lambda: KHop(fanouts=(4, 2), unique_per_step=True),
        lambda: _graph(False), 3 * _CHUNK // 4),
    "ladies": Workload(lambda: LADIES(step_size=8, batch_size=8),
                       lambda: _graph(False), 2 * _ROWS),
}

#: engine class name -> factory(workers=...), every engine class.
ENGINES: Dict[str, Callable] = {cls.__name__: cls for cls in [
    NextDoorEngine, LargeGraphNextDoor] + [
    getattr(baselines, name) for name in baselines.__all__]}
ENGINES["LargeGraphNextDoor"] = functools.partial(LargeGraphNextDoor,
                                                  1 << 34)


class Cell(NamedTuple):
    workload: str
    backend: str
    workers: int
    path: str
    priced: bool
    disturbance: str
    engine: str
    devices: int


def axes() -> Dict[str, Tuple]:
    """Every value of every axis, in :class:`Cell` field order."""
    return {"workload": tuple(WORKLOADS), "backend": available_backends(),
            "workers": (0, 2), "path": ("direct", "served"),
            "priced": (False, True),
            "disturbance": ("none", "chunk-error", "cancel"),
            "engine": tuple(ENGINES), "devices": (1, 2, 4)}


def cells() -> List[Cell]:
    """The valid cells, grouped by (workload, backend, workers,
    disturbance), each group's served cell last."""
    ax, out = axes(), []
    gpu = {name for name, make in ENGINES.items()
           if isinstance(make(workers=0), NextDoorEngine)}
    for workload, backend, workers, disturbance in itertools.product(
            ax["workload"], ax["backend"], ax["workers"],
            ax["disturbance"]):
        for priced, engine in itertools.product(ax["priced"], ENGINES):
            for devices in ax["devices"] if engine in gpu else (1,):
                out.append(Cell(workload, backend, workers, "direct",
                                priced, disturbance, engine, devices))
        if WORKLOADS[workload].served:
            out.append(Cell(workload, backend, workers, "served", False,
                            disturbance, "NextDoorEngine", 1))
    return out


# ----------------------------------------------------------------------
# The oracle.  An outcome is ``(digest, price or None)``, or ``(error,
# message)`` for a run that raised (direct) or failed (served).
# ----------------------------------------------------------------------

def _price(result) -> Tuple:
    asdict = dataclasses.asdict
    by_phase = result.metrics_by_phase
    return (repr(result.seconds), result.breakdown,
            result.metrics and asdict(result.metrics),
            by_phase and {p: asdict(m) for p, m in by_phase.items()})


@functools.lru_cache(maxsize=256)
def _reference(w: Workload, chunk_pairs: int):
    """The numpy / workers-0 / direct NextDoor run of a workload (keyed
    by the chunk size too: the chunk layout is part of the draw)."""
    with backend_scope("numpy"):
        return NextDoorEngine(workers=0).run(
            w.app(), w.graph(), num_samples=w.samples, seed=w.seed)


@functools.lru_cache(maxsize=256)
def _expected(w: Workload, chunk_pairs: int, engine: str, devices: int,
              priced: bool) -> Tuple:
    """The outcome a cell of ``engine`` at ``devices`` must have."""
    ref = _reference(w, chunk_pairs)
    try:
        view = ref.priced_as(ENGINES[engine](workers=0), devices)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return batch_digest(ref.batch), _price(view) if priced else None


def _direct(cell: Cell, w: Workload) -> Tuple[Tuple, Optional[Tuple]]:
    """(the run's outcome, its disturbed attempt's) on one engine."""
    engine = ENGINES[cell.engine](workers=cell.workers)

    def run():
        try:
            result = engine.run(w.app(), w.graph(), num_samples=w.samples,
                                seed=w.seed, num_devices=cell.devices)
            price = _price(result) if cell.priced else None  # no digest yet
            return batch_digest(result.batch), price
        except Exception as exc:  # an outcome like any other
            return type(exc).__name__, str(exc)

    first = None
    if cell.disturbance != "none":
        if cell.disturbance == "chunk-error":
            engine.fault_plan = FaultPlan.parse(FAULT)
        else:
            engine.cancel = CancelScope(
                trip_after_checks=CANCEL_AFTER_CHECKS)
        first = run()
        engine.fault_plan = engine.cancel = None
    return run(), first


def _served(cell: Cell, w: Workload) -> Tuple[Tuple, Optional[Tuple]]:
    """The same through one daemon's request path (``handle_sample``:
    parse, graph cache, admission, a per-request engine and its test
    hooks, digest); ``tests/test_serve.py`` covers the HTTP around it."""
    from repro.serve.server import SamplingServer, ServerConfig

    server = SamplingServer(ServerConfig(executors=1, workers=cell.workers,
                                         allow_test_hooks=True))

    def ask(**hooks):
        r = server.handle_sample(json.dumps(dict(
            app=w.served, graph="ppi", samples=w.samples, seed=w.seed,
            return_samples=False, **hooks)).encode())
        return ((r["digest"], None) if r["status"] == "ok"
                else (r["status"], r.get("error")))

    first = None
    if cell.disturbance == "chunk-error":
        first = ask(fault_plan=FAULT)
    elif cell.disturbance == "cancel":
        first = ask(cancel_after_checks=CANCEL_AFTER_CHECKS)
    return ask(), first


_FAULTED = "injected chunk error (step 1, chunk 1)"
#: How a disturbed attempt must fail: (error, its message's start).
_FAILURES = {
    ("direct", "chunk-error"): ("FaultInjected", _FAULTED),
    ("direct", "cancel"): ("CancelledRun", "run cancelled"),
    ("served", "chunk-error"): ("error", f"injected fault: {_FAULTED}"),
    ("served", "cancel"): ("deadline_exceeded",
                           "deadline exceeded at mid-run")}


def check_cell(cell: Cell,
               workloads: Dict[str, Workload] = WORKLOADS) -> List[str]:
    """Where ``cell`` departs from its reference (empty: it holds).
    ``workloads`` names the inputs: the lattice's by default."""
    w = workloads[cell.workload]
    want = _expected(w, rngplan.CHUNK_PAIRS, cell.engine, cell.devices,
                     cell.priced)
    with backend_scope(cell.backend) as backend:
        got, first = (_served if cell.path == "served"
                      else _direct)(cell, w)
    problems = ["the backend fell back to numpy"] if getattr(
        backend, "_failed", None) else []
    if got != want:
        problems.append(f"got {str(got)[:160]}, want {str(want)[:160]}")
    if first is not None:
        error, start = (want if want[0] == "ValueError"
                        else _FAILURES[cell.path, cell.disturbance])
        if first[0] != error or not str(first[1]).startswith(start):
            problems.append(f"{cell.disturbance} attempt: "
                            f"{str(first)[:160]}")
    return problems


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------

def _groups() -> Dict[Tuple, List[Cell]]:
    return {key: list(group) for key, group in itertools.groupby(
        cells(), key=lambda c: c[:4] + (c.disturbance,))}


def check_count() -> int:
    """Checks :func:`run_identity_checks` makes, from the lattice."""
    return len(_groups()) if len(available_backends()) > 1 else 1


def run_identity_checks(workers: Optional[int] = None,
                        seed: int = 0) -> List[CheckResult]:
    """Every cell; ``workers`` and ``seed`` are unused (the lattice
    covers workers 0 and 2 and pins its seeds).  With no compiled
    backend there is nothing to hold numpy to: one failed check."""
    del workers, seed
    if len(available_backends()) == 1:
        return [CheckResult(
            name="backends", suite="identity", family="setup",
            passed=False,
            detail="no compiled backend runnable on this host")]
    results = []
    for key, group in _groups().items():
        problems = [f"{c.engine}/D{c.devices}/"
                    f"{'priced' if c.priced else 'unpriced'}: {p}"
                    for c in group for p in check_cell(c)]
        results.append(CheckResult(
            name="/".join(map(str, key)), suite="identity",
            family=key[0], passed=not problems, statistic=len(group),
            detail="; ".join(problems[:4]) if problems
            else f"{len(group)} cells hold"))
    return results
