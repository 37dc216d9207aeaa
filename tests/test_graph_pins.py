"""Generated graphs pinned bitwise.

The dataset stand-ins are the inputs of every sampled value, golden
fixture and ledger digest, so a generator change that reorders a row or
drops an edge must show here first.  Each pin is the first 16 hex
digits of the sha256 of ``indptr``, ``indices`` (widened to ``int64``)
and ``weights`` (or ``None`` for an unweighted graph).
"""

import hashlib

import numpy as np
import pytest

from repro.graph import datasets
from repro.graph.generators import (
    barabasi_albert_graph,
    clustered_graph,
    erdos_renyi_graph,
    rmat_graph,
)


def pins(graph):
    def digest(a):
        # Integers widened: a pin holds values, not the id width.
        return None if a is None else hashlib.sha256(np.asarray(
            a, np.int64 if a.dtype.kind == "i" else a.dtype
        ).tobytes()).hexdigest()[:16]
    return [digest(graph.indptr), digest(graph.indices),
            digest(graph.weights)]


LIVEJ = "7fb20c90c5dd75b3", "691764e668807923"
LIVEJ_11 = "53155748e094fdaf", "96a7b1507bb62480"


@pytest.mark.parametrize("seed,weighted,expected", [
    (7, False, [*LIVEJ, None]),
    (7, True, [*LIVEJ, "ed0208c16d1aed9a"]),
    (11, False, [*LIVEJ_11, None]),
    (11, True, [*LIVEJ_11, "74d4bb176aa5c7db"]),
], ids=["seed7", "seed7-weighted", "seed11", "seed11-weighted"])
def test_ledger_graphs(seed, weighted, expected):
    """The ``walk`` / ``khop`` / ``ladies`` graphs at both ledger seeds."""
    graph = datasets.load("livej", seed=seed, weighted=weighted, scale=30)
    assert pins(graph) == expected


@pytest.mark.parametrize("name,weighted,expected", [
    ("ppi", False, ["43b3e43f844209e2", "e81577f1e89ecbc6", None]),
    ("ppi", True, ["43b3e43f844209e2", "e81577f1e89ecbc6",
                   "3d030c26dcf83baf"]),
    ("reddit", False, ["6a49e1baf2412a2e", "77839a5028ce5788", None]),
    ("patents", False, ["ad2a48c50fe78d84", "0592cf81ef9b9c00", None]),
], ids=["ppi", "ppi-weighted", "reddit", "patents"])
def test_paper_datasets(name, weighted, expected):
    assert pins(datasets.load(name, weighted=weighted)) == expected


@pytest.mark.parametrize("build,expected", [
    (lambda: erdos_renyi_graph(500, 6.0, seed=3),
     ["843466a09fe4d539", "c69ad50336f6ee47", None]),
    (lambda: erdos_renyi_graph(500, 6.0, seed=3, undirected=False),
     ["155cb58ffefab451", "a7008914051ff026", None]),
    (lambda: barabasi_albert_graph(500, 3, seed=3),
     ["8303b1df30379967", "f3d870ef3071a10f", None]),
    (lambda: clustered_graph(600, 6, seed=3),
     ["611e19a03f2fbb7c", "987357471af193fe", None]),
    (lambda: rmat_graph(1000, 5000, seed=3, undirected=False),
     ["c76a078c73da0725", "7f68c5c7b26cbc96", None]),
    (lambda: datasets.load_clustered("ppi", 8),
     ["4aaca2cf3944bef9", "61f24d28a06702ba", None]),
    # R-MAT quadrant CDFs with a zero or a full cut, no fold, the
    # smallest graph, both directions.
    (lambda: rmat_graph(1000, 5000, a=0.45, b=0.25, c=0.0, seed=3),
     ["c40b24154ac624ae", "be34fa0ee37ec2ba", None]),
    (lambda: rmat_graph(1000, 5000, a=0.3, b=0.2, c=0.1, seed=3,
                        undirected=False),
     ["d02b0d4d0331e54e", "a8b4c61f1aee37a5", None]),
    (lambda: rmat_graph(1000, 5000, a=0.5, b=0.2, c=0.3, seed=3),
     ["3bd50d51d23977cb", "b49473b2e12bbf6b", None]),
    (lambda: rmat_graph(1024, 6000, seed=5),
     ["b752b400cc263834", "1f18da2b1f352103", None]),
    (lambda: rmat_graph(2, 50, seed=1),
     ["ab25350e3e65efeb", "4cbbd8ca5215b8d1", None]),
    (lambda: rmat_graph(1000, 5000, seed=3),
     ["c1645fd1f5072eb2", "2705f6d8490d6ef5", None]),
], ids=["er", "er-directed", "ba", "clustered", "rmat-directed",
        "ppi-clustered", "rmat-c-zero", "rmat-light-d", "rmat-no-d",
        "rmat-n-power-of-two", "rmat-n-2", "rmat-undirected"])
def test_small_generators(build, expected):
    assert pins(build()) == expected
