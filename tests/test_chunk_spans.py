"""Inputs that must span chunks do, at the current chunk constant.

The identity lattice (``repro.verify.identity``) aims its
``chunk-error`` fault at chunk 1 of step 1 of every workload, and runs
that step on chunk threads.  Each workload sizes its input from
``CHUNK_PAIRS``; these tests run each workload's own app, graph and
size, record the steps and check that the faulted step covers at least
two whole chunks.  A new chunk constant that leaves a workload on one
chunk fails here rather than passing blind.
"""

import functools

import pytest

from repro.core import stepper
from repro.runtime.context import ExecutionContext
from repro.runtime.rngplan import RNGPlan
from repro.verify import identity


@functools.lru_cache(maxsize=None)
def _records(name):
    w = identity.WORKLOADS[name]
    app, graph = w.app(), w.graph()
    ctx = ExecutionContext(w.seed, workers=0)
    batch = stepper.init_batch(app, graph, w.samples, None,
                               ctx.init_rng())
    ctx.begin_run(app, graph)
    records = []
    stepper.run_steps(app, graph, batch, ctx, on_step=records.append)
    return records


def _chunks(record) -> float:
    """Whole chunks the step's work fills: pairs, or a collective
    step's sample rows."""
    plan = RNGPlan(0)
    if record.collective:
        return len(record.transits) / plan.rows_per_chunk
    return record.num_pairs / plan.chunk_pairs


def _fault_step(fault: str) -> int:
    name, where = fault.split(":")
    assert name == "chunk-error" and where.endswith(".1")
    return int(where.split(".")[0])


@pytest.mark.parametrize("workload", sorted(identity.WORKLOADS))
def test_faulted_step_spans_two_chunks(workload):
    assert _chunks(_records(workload)[_fault_step(identity.FAULT)]) >= 2


#: The old chaos suite's walk, k-hop and LADIES inputs, now lattice
#: workloads that carry the same ``chunk-error`` disturbance.
@pytest.mark.parametrize("workload", ["deepwalk", "khop", "ladies"],
                         ids=["walk", "khop", "ladies"])
def test_chaos_faulted_step_spans_two_chunks(workload):
    assert _chunks(_records(workload)[_fault_step(identity.FAULT)]) >= 2


def test_serve_faulted_step_spans_two_chunks():
    served = [name for name, w in identity.WORKLOADS.items() if w.served]
    assert served
    for name in served:
        assert _chunks(_records(name)[_fault_step(identity.FAULT)]) >= 2


#: The old native suite's pooled cases, now the lattice workloads that
#: run the same kernels on two chunk threads.
@pytest.mark.parametrize("workload", ["deepwalk", "khop_unique", "ladies"],
                         ids=["deepwalk_pooled", "khop_pooled",
                              "ladies_pooled"])
def test_native_pooled_case_spans_two_chunks(workload):
    assert max(_chunks(r) for r in _records(workload)) >= 2
