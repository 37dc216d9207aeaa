"""A fresh graph touched by two chunk threads at once.

The compiled kernels take a graph's array addresses once
(:meth:`CSRGraph.addresses`) and keep them for the graph's life, so each
address must be that of an array the graph itself holds: a table built
twice by racing threads, one copy kept and one freed, leaves a cached
address into freed memory.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.native.backend import available_backends

SRC = Path(__file__).resolve().parents[1] / "src"
THREADS = 2


def touch_at_once(graph, read):
    """``read(graph)`` on ``THREADS`` threads released together."""
    barrier, seen = threading.Barrier(THREADS), []

    def touch():
        barrier.wait(timeout=30)
        seen.append(read(graph))

    threads = [threading.Thread(target=touch) for _ in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == THREADS
    return seen


@pytest.fixture(scope="module")
def livej():
    return datasets.load("livej", seed=7, weighted=True, scale=30)


def fresh(graph):
    """A new graph object over the same arrays: no table built yet."""
    return CSRGraph(graph.indptr, graph.indices, graph.weights)


@pytest.mark.parametrize("trial", range(8))
def test_addresses_are_of_arrays_the_graph_keeps(livej, trial):
    graph = fresh(livej)
    seen = touch_at_once(graph, CSRGraph.addresses)
    held = (graph.indptr, graph.indices, graph.degrees_array)
    assert seen == [tuple(a.ctypes.data for a in held)] * THREADS
    assert graph.addresses() == seen[0]


@pytest.mark.parametrize("trial", range(4))
def test_weight_records_are_built_once(livej, trial):
    graph = fresh(livej)
    seen = touch_at_once(graph, lambda g: (g.weight_records(),
                                           g.addresses(weighted=True)))
    (records, _), (other, _) = seen
    assert all(a is b for a, b in zip(records, other))
    assert [addresses for _, addresses in seen] == [
        tuple(a.ctypes.data for a in graph.weight_records())] * THREADS


def test_degrees_are_built_with_the_graph(livej):
    graph = fresh(livej)
    assert "degrees_array" in vars(graph)
    assert not graph.degrees_array.flags.writeable


RECIPE = """
from repro.api.apps import KHop
from repro.core.engine import NextDoorEngine
from repro.graph import datasets
from repro.native.backend import backend_scope
from repro.runtime import rngplan

# Eight chunks in step 0, four a thread: the race needs many first reads.
rngplan.CHUNK_PAIRS = 4096
graph = datasets.load("livej", seed=7, scale=30)
with backend_scope("cnative"):
    NextDoorEngine(workers=2).run(KHop((25, 10)), graph,
                                  num_samples=32768, seed=3)
"""


@pytest.mark.skipif("cnative" not in available_backends(),
                    reason="no C toolchain on this host")
def test_first_threaded_compiled_run_on_a_fresh_graph():
    """The first run's two chunk threads both read the fresh graph's
    degrees; the run must not crash (it died with SIGSEGV when each
    thread built a degree array of its own)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(2):
        out = subprocess.run([sys.executable, "-c", RECIPE], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr[-2000:]
