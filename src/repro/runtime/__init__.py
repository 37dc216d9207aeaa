"""Multicore sampling runtime.

Shards the functional numpy half of a run (the per-step neighbor
draws) across a persistent shared-memory worker pool while the
performance-model half stays in the parent, full-batch.  See
``docs/PERF.md`` ("Multicore runtime") for the determinism contract:
samples are bitwise-identical for any worker count, and every modeled
charge is unchanged by the runtime — and ``docs/RESILIENCE.md`` for
the failure model: a lost worker retires the pool and the run finishes
in-process, deterministic faults are injected via
:mod:`repro.runtime.faults`, and an interrupted run is run again.
"""

from repro.runtime.context import ExecutionContext, resolve_workers
from repro.runtime.faults import FaultInjected, FaultPlan
from repro.runtime.pool import (
    WorkerCrash,
    get_pool,
    resolve_progress_timeout,
    retire_pool,
    shutdown_pools,
)
from repro.runtime.rngplan import (
    AUX_POST,
    AUX_TOPUP,
    DEFAULT_CHUNK_PAIRS,
    RNGPlan,
)
from repro.runtime.shm import (
    SharedGraphHandle,
    export_graph,
    import_graph,
    release_all,
    release_graph,
    sweep_stale_segments,
)

__all__ = [
    "ExecutionContext",
    "resolve_workers",
    "RNGPlan",
    "DEFAULT_CHUNK_PAIRS",
    "AUX_TOPUP",
    "AUX_POST",
    "WorkerCrash",
    "get_pool",
    "retire_pool",
    "shutdown_pools",
    "resolve_progress_timeout",
    "FaultPlan",
    "FaultInjected",
    "SharedGraphHandle",
    "export_graph",
    "import_graph",
    "release_graph",
    "release_all",
    "sweep_stale_segments",
]
