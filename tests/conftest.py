"""Shared fixtures: small deterministic graphs every suite reuses."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.native.backend import available_backends, backend_scope
from repro.runtime import rngplan


@pytest.fixture
def tiny_graph():
    """The 7-vertex graph sketched in the paper's Figure 2a-style
    examples: small enough to check samples by hand."""
    edges = [
        (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4),
        (4, 5), (5, 6), (2, 5), (1, 6),
    ]
    return CSRGraph.from_edges(7, edges, undirected=True, name="tiny")


@pytest.fixture
def tiny_weighted(tiny_graph):
    return tiny_graph.with_random_weights(seed=7)


@pytest.fixture
def star_graph():
    """Vertex 0 connected to everything: maximal transit sharing."""
    edges = [(0, i) for i in range(1, 33)]
    return CSRGraph.from_edges(33, edges, undirected=True, name="star")


@pytest.fixture
def chain_graph():
    """A path: every internal vertex has degree 2, no hubs."""
    edges = [(i, i + 1) for i in range(63)]
    return CSRGraph.from_edges(64, edges, undirected=True, name="chain")


@pytest.fixture(scope="session")
def medium_graph():
    """A power-law graph big enough for statistical checks."""
    return rmat_graph(2000, 12000, seed=11, name="medium")


@pytest.fixture(scope="session")
def medium_weighted(medium_graph):
    return medium_graph.with_random_weights(seed=5)


@pytest.fixture(params=available_backends(), scope="module")
def backend(request):
    """Every kernel backend that runs here (numpy, and cnative with a
    C toolchain), active for the requesting module's tests (module
    scope, so hypothesis tests may use it)."""
    with backend_scope(request.param) as active:
        yield active
    # A library that failed to load would have fallen back to numpy
    # silently.
    assert not getattr(active, "_failed", None)


@pytest.fixture
def numpy_backend():
    """The numpy backend, whatever ``$REPRO_BACKEND`` says."""
    with backend_scope("numpy"):
        yield


@pytest.fixture
def set_chunk_pairs(monkeypatch):
    """Sets ``rngplan.CHUNK_PAIRS`` for one test and undoes it after:
    small graphs need small chunks to have more than one a step.  The
    runs a test makes after the call sample in chunks of that size."""
    def set_pairs(pairs: int) -> None:
        monkeypatch.setattr(rngplan, "CHUNK_PAIRS", pairs)
    return set_pairs


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
