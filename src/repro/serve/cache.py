"""Warm graph cache: repeat tenants skip reload and re-broadcast.

Loading a dataset stand-in (or parsing an edge-list file) and
broadcasting it to the worker pool are the expensive, request-
independent parts of a sampling request.  The daemon loads each graph
once and reuses it: because the pool's ``broadcast_run`` ships a
shared-memory *handle* derived from the graph object, reusing the same
object means repeat requests re-attach the existing segment instead of
re-exporting gigabytes.

Keys are content-derived, not name-derived:

* dataset stand-ins: ``(name, weighted, seed)`` — exactly the inputs
  :func:`repro.graph.datasets.load` derives the arrays from;
* graph files: the file path plus a SHA-256 of its bytes, so a file
  rewritten in place misses the cache instead of serving stale
  samples.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Dict, Tuple

from repro.obs import get_metrics

__all__ = ["GraphCache"]

#: Apps that sample weighted stand-ins (mirrors
#: ``repro.bench.runner.paper_graph``).
_WEIGHTED_APPS = ("DeepWalk", "PPR", "node2vec")


class GraphCache:
    """Thread-safe graph store for the daemon."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._graphs: Dict[tuple, object] = {}

    def _load(self, name: str, app_name: str, seed: int):
        from repro.graph import datasets
        if name in datasets.SPECS:
            weighted = app_name in _WEIGHTED_APPS
            return ("dataset", name, weighted, seed), lambda: \
                datasets.load(name, seed=seed, weighted=weighted)
        if os.path.exists(name):
            with open(name, "rb") as f:
                content = hashlib.sha256(f.read()).hexdigest()[:16]

            def load_file():
                from repro.graph import io as graph_io
                if name.endswith(".npz"):
                    return graph_io.load_npz(name)
                return graph_io.load_edge_list(name)
            return ("file", os.path.abspath(name), content), load_file
        raise ValueError(
            f"unknown graph {name!r} — pick a dataset "
            f"({', '.join(sorted(datasets.SPECS))}) or pass an "
            "edge-list/.npz path readable by the daemon")

    def resolve(self, name: str, app_name: str,
                seed: int) -> Tuple[object, bool]:
        """``(graph, cache_hit)`` for one request.

        Raises ``ValueError`` with a client-readable message when the
        graph cannot be resolved.
        """
        key, loader = self._load(name, app_name, seed)
        metrics = get_metrics()
        with self._lock:
            graph = self._graphs.get(key)
            if graph is not None:
                metrics.counter("serve.cache_hits").inc()
                return graph, True
        # Load outside the lock (parsing a big edge list can take
        # seconds); a racing duplicate load is wasted work, not a bug —
        # last writer wins and both objects are identical.
        graph = loader()
        with self._lock:
            existing = self._graphs.get(key)
            if existing is not None:
                metrics.counter("serve.cache_hits").inc()
                return existing, True
            self._graphs[key] = graph
        metrics.counter("serve.cache_misses").inc()
        return graph, False

    def size(self) -> int:
        with self._lock:
            return len(self._graphs)
