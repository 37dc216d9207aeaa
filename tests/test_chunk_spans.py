"""Inputs that must span chunks do, at the current chunk constant.

The chaos and serve verify suites aim a ``chunk-error`` fault at chunk
1 of a step, and the native suite's pooled cases exist to run chunk
threads.  Each sizes its input from ``CHUNK_PAIRS``; these tests run
each suite's own app, graph and sizes, record the steps and check that
the step in question covers at least two whole chunks.  A new chunk
constant that leaves a suite on one chunk fails here rather than
passing blind.
"""

import pytest

from repro.core import stepper
from repro.runtime.context import ExecutionContext
from repro.runtime.rngplan import RNGPlan
from repro.verify import chaos, native, serve


def _records(app, graph, num_samples, seed):
    ctx = ExecutionContext(seed, workers=0)
    batch = stepper.init_batch(app, graph, num_samples, None,
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


@pytest.mark.parametrize("index", range(3), ids=["walk", "khop", "ladies"])
def test_chaos_faulted_step_spans_two_chunks(index):
    app = chaos._apps()[index]
    records = _records(app, chaos._chaos_graph(), chaos._NUM_SAMPLES,
                       chaos._SEED)
    assert _chunks(records[_fault_step(chaos._FAULT)]) >= 2


def test_serve_faulted_step_spans_two_chunks():
    from repro.bench.runner import paper_app, paper_graph
    graph = paper_graph(serve._GRAPH, "k-hop", seed=serve._SEED)
    records = _records(paper_app("k-hop"), graph, serve._SAMPLES,
                       serve._SEED)
    assert _chunks(records[_fault_step(serve._FAULT)]) >= 2


@pytest.mark.parametrize("case", sorted(native.POOLED_CASES))
def test_native_pooled_case_spans_two_chunks(case):
    factory, weighted, num_samples = native.POOLED_CASES[case]
    records = _records(factory(), native.pooled_graph(weighted),
                       num_samples, native._POOLED_SEED)
    assert max(_chunks(r) for r in records) >= 2
