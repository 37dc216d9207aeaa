"""Checkpoint/resume for long sampling runs.

An interrupted run (ctrl-C, preemption, OOM-killed host) should not
throw away hours of sampling.  The execution context persists every
**completed chunk result** — the unit the deterministic RNG plan
already defines — and a resumed run loads those results instead of
recomputing them.  Because a chunk's output is a pure function of
``(app, graph, chunk data, chunk generator)``, a resumed run is
**bitwise-identical** to an uninterrupted one: the parent replays the
cheap model half (transit maps, charges) and skips only the sampling
compute that was already done.

Layout on disk (see ``docs/RESILIENCE.md``)::

    DIR/<fingerprint>/<kind>_<namespace>_s<step>_c<chunk>.npz

``fingerprint`` is a SHA-256 over everything the chunk results depend
on: the pickled app, the graph's content digest, the run seed, the RNG
plan's chunk sizes, the root array and the schedule version.  Any
mismatch — a different seed, an edited graph, a changed chunk size —
lands in a different directory, so stale state can never leak into a
run; ``--resume`` against an empty directory simply recomputes
everything.  Files are written atomically (tmp + ``os.replace``) so a
crash mid-write leaves no torn chunk, and unreadable files are treated
as cache misses.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from dataclasses import fields
from typing import Optional, Tuple

import numpy as np

from repro.api.types import StepInfo
from repro.obs import get_metrics
from repro.runtime.rngplan import SCHEDULE_VERSION

__all__ = ["CheckpointStore", "graph_digest", "run_fingerprint"]

_INFO_FIELDS = tuple(f.name for f in fields(StepInfo))


def graph_digest(graph) -> str:
    """Content hash of a CSR graph (cached on the instance)."""
    cached = getattr(graph, "_content_digest", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    for arr in (graph.indptr, graph.indices):
        h.update(np.ascontiguousarray(arr).tobytes())
    if graph.is_weighted:
        h.update(np.ascontiguousarray(graph.weights).tobytes())
    digest = h.hexdigest()
    try:
        graph._content_digest = digest
    except AttributeError:  # pragma: no cover - read-only instance
        pass
    return digest


def run_fingerprint(app, graph, seed: int, plan, roots: np.ndarray) -> str:
    """Digest of every input a run's chunk results depend on."""
    h = hashlib.sha256()
    try:
        h.update(pickle.dumps(app, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        # Unpicklable apps can still checkpoint: fall back to a
        # class+repr fingerprint (collisions require a lying __repr__).
        h.update(f"{type(app).__module__}.{type(app).__qualname__}"
                 f"::{app!r}".encode())
    h.update(graph_digest(graph).encode())
    h.update(f"|seed={int(seed)}|pairs={plan.chunk_pairs}"
             f"|rows={plan.chunk_rows}|schedule={SCHEDULE_VERSION}".encode())
    h.update(np.ascontiguousarray(roots).tobytes())
    return h.hexdigest()[:32]


class CheckpointStore:
    """Per-run directory of completed chunk results.

    One store serves every shard of a run (shard plans namespace their
    keys), and saves are thread-safe: each file is written once, to a
    thread-unique temp name, then atomically renamed.
    """

    def __init__(self, root: str, fingerprint: str,
                 resume: bool = False) -> None:
        self.root = root
        self.fingerprint = fingerprint
        self.dir = os.path.join(root, fingerprint)
        self.resume = bool(resume)
        os.makedirs(self.dir, exist_ok=True)

    def _path(self, kind: str, namespace: Tuple[int, ...], step: int,
              chunk: int) -> str:
        ns = "-".join(str(n) for n in namespace) or "root"
        return os.path.join(self.dir,
                            f"{kind}_{ns}_s{step}_c{chunk}.npz")

    def load(self, kind: str, namespace: Tuple[int, ...], step: int,
             chunk: int) -> Optional[Tuple[np.ndarray, StepInfo]]:
        """The stored ``(array, StepInfo)`` for one chunk, or ``None``
        (missing or unreadable files are cache misses, never errors)."""
        path = self._path(kind, namespace, step, chunk)
        try:
            with np.load(path) as f:
                data = np.array(f["data"])
                info_vals = np.asarray(f["info"], dtype=np.float64)
        except (OSError, ValueError, KeyError, EOFError):
            return None
        if info_vals.shape != (len(_INFO_FIELDS),):
            return None
        info = StepInfo(**{name: float(v) for name, v
                           in zip(_INFO_FIELDS, info_vals)})
        get_metrics().counter("checkpoint.chunks_loaded").inc()
        return data, info

    def save(self, kind: str, namespace: Tuple[int, ...], step: int,
             chunk: int, data: np.ndarray, info: StepInfo) -> None:
        """Persist one completed chunk result atomically."""
        path = self._path(kind, namespace, step, chunk)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        info_vals = np.array([float(getattr(info, name))
                              for name in _INFO_FIELDS],
                             dtype=np.float64)
        try:
            # Write through a file object: np.savez would otherwise
            # append ".npz" to the temp name and break the rename.
            with open(tmp, "wb") as fh:
                np.savez(fh, data=np.ascontiguousarray(data),
                         info=info_vals)
            os.replace(tmp, path)
        except OSError:
            # A full/readonly disk must not kill the run: sampling
            # continues, this chunk is simply recomputed on resume.
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        get_metrics().counter("checkpoint.chunks_saved").inc()
