"""Multicore sampling runtime.

Runs the functional numpy half of a run (the per-step neighbor draws)
as fixed-size chunks, on ``workers`` threads of this process when
asked, while the performance-model half stays full-batch.  See
``docs/PERF.md`` ("Multicore runtime") for the determinism contract:
samples are bitwise-identical for any worker count, and every modeled
charge is unchanged by the runtime — and ``docs/RESILIENCE.md`` for
the failure model: a chunk that raises fails the run, running it again
gives the same batch, and deterministic faults are injected via
:mod:`repro.runtime.faults`.
"""

from repro.runtime.context import ExecutionContext, resolve_workers
from repro.runtime.faults import FaultInjected, FaultPlan
from repro.runtime.rngplan import (
    AUX_POST,
    AUX_TOPUP,
    DEFAULT_CHUNK_PAIRS,
    RNGPlan,
)

__all__ = [
    "ExecutionContext",
    "resolve_workers",
    "RNGPlan",
    "DEFAULT_CHUNK_PAIRS",
    "AUX_TOPUP",
    "AUX_POST",
    "FaultPlan",
    "FaultInjected",
]
