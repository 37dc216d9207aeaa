"""Zero-copy graph sharing via ``multiprocessing.shared_memory``.

Kept only for the perf ledger's cold set-up (``benchmarks/ledger``),
which times a graph export and its import by spawned workers; it goes
with ROADMAP item 1(a).  No sampling run creates a segment.

``export_graph`` places ``indptr`` / ``indices`` / ``weights``, degrees
and row maxima into named shared-memory segments and returns a small
picklable :class:`SharedGraphHandle`.  ``import_graph`` maps those
segments read-only into a :class:`~repro.graph.csr.CSRGraph` without
running any of the constructor's validation or sorting (the exporter's
arrays are already validated and row-sorted).
``CSRGraph.weight_records`` is not shipped: importers derive it.

Cleanup is owner-side: the exporting process unlinks every segment via
``release_all`` (registered with ``atexit``, and with a ``SIGTERM``
handler so a polite kill also cleans up), and importers only ever
``close()`` their mappings.  Segment names embed the owner's PID, so
when an owner dies *hard* (SIGKILL, OOM) — skipping atexit entirely —
the next pool startup's :func:`sweep_stale_segments` can prove the
owner is gone and unlink the orphans.  On Python < 3.13 an attaching
process wrongly registers the segment with its resource tracker
(bpo-38119), which would unlink it when that process exits; ``attach``
undoes the registration so workers cannot reap segments they do not
own.
"""

from __future__ import annotations

import atexit
import errno
import os
import secrets
import signal
import threading
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.obs import get_metrics

__all__ = ["SharedGraphHandle", "export_graph", "import_graph",
           "release_all", "sweep_stale_segments", "leaked_segments",
           "SEGMENT_PREFIX"]

#: Prefix of every segment this module creates — the leak tests and
#: the stale-segment sweep scan ``/dev/shm`` for it.  Full names are
#: ``{prefix}_{owner pid}_{export key}_{array}``.
SEGMENT_PREFIX = "reprocsr"

#: Where POSIX shared memory lives on Linux (absent elsewhere).
_SHM_DIR = "/dev/shm"


@dataclass(frozen=True)
class SharedGraphHandle:
    """Picklable description of one exported graph.

    ``arrays`` maps field name -> (segment name, dtype string, shape).
    ``key`` is unique per export and is what worker-side caches key on.
    """

    key: str
    graph_name: str
    arrays: Dict[str, Tuple[str, str, Tuple[int, ...]]] = field(
        default_factory=dict)

    def segment_names(self) -> List[str]:
        return [seg for seg, _, _ in self.arrays.values()]


#: Exporter-side state: a graph handle's key -> list of SharedMemory
#: objects (kept referenced so the mappings stay alive until release).
_OWNED: Dict[str, List[shared_memory.SharedMemory]] = {}


def _create(key: str, name: str, nbytes: int) -> shared_memory.SharedMemory:
    nbytes = max(int(nbytes), 1)
    # tmpfs hands pages out on first touch and answers a full
    # filesystem with SIGBUS, not an exception (a container's default
    # /dev/shm is 64 MB): refuse up front with an ``OSError``.
    if os.path.isdir(_SHM_DIR):
        fs = os.statvfs(_SHM_DIR)
        if fs.f_bavail * fs.f_frsize < nbytes:
            raise OSError(errno.ENOSPC,
                          f"{_SHM_DIR} has no room for {nbytes} bytes")
    # The owner's PID in the name lets sweep_stale_segments prove a
    # leftover segment's exporter is dead before unlinking it.
    return shared_memory.SharedMemory(
        create=True, size=nbytes,
        name=f"{SEGMENT_PREFIX}_{os.getpid()}_{key}_{name}")


def _export_array(handle_arrays, segments, key: str, name: str,
                  arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    shm = _create(key, name, arr.nbytes)
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    segments.append(shm)
    handle_arrays[name] = (shm.name, arr.dtype.str, tuple(arr.shape))


def export_graph(graph: CSRGraph) -> SharedGraphHandle:
    """Place ``graph``'s arrays (and degree / row-max caches) in shm.

    Idempotent per graph object: the handle is cached on the instance,
    so repeated runs over the same graph share one set of segments.
    """
    cached = getattr(graph, "_shared_handle", None)
    if cached is not None and cached.key in _OWNED:
        return cached
    _install_sigterm_cleanup()
    key = secrets.token_hex(4)
    arrays: Dict[str, Tuple[str, str, Tuple[int, ...]]] = {}
    segments: List[shared_memory.SharedMemory] = []
    try:
        _export_array(arrays, segments, key, "indptr", graph.indptr)
        _export_array(arrays, segments, key, "indices", graph.indices)
        _export_array(arrays, segments, key, "degrees",
                      graph.degrees_array)
        if graph.is_weighted:
            _export_array(arrays, segments, key, "weights", graph.weights)
            _export_array(arrays, segments, key, "wrowmax",
                          graph.row_max_weight())
    except BaseException:
        for shm in segments:
            shm.close()
            shm.unlink()
        raise
    handle = SharedGraphHandle(key=key, graph_name=graph.name,
                               arrays=arrays)
    _OWNED[key] = segments
    graph._shared_handle = handle
    get_metrics().counter("shm.bytes_mapped").inc(
        sum(shm.size for shm in segments))
    return handle


def release_all() -> None:
    """Unlink every segment this process exported."""
    for key in list(_OWNED):
        for shm in _OWNED.pop(key, ()):
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            try:
                shm.close()
            except BufferError:
                # A view of the segment is still alive (an export
                # interrupted by SIGTERM): the pages go with it.
                pass


atexit.register(release_all)


_SIGTERM_INSTALLED = False


def _install_sigterm_cleanup() -> None:
    """Unlink our segments on a polite kill (installed once).

    ``atexit`` does not run when a process dies to an unhandled
    ``SIGTERM``, so a plain ``kill`` would orphan every exported
    segment until the next sweep.  The handler releases our segments,
    retires the worker pools, then restores the default disposition and
    re-raises the signal so the exit status still says "killed by
    SIGTERM".  Installed only from the main thread and only when nobody
    else claimed SIGTERM; otherwise the stale-segment sweep is the
    backstop.
    """
    global _SIGTERM_INSTALLED
    if _SIGTERM_INSTALLED:
        return
    _SIGTERM_INSTALLED = True
    if threading.current_thread() is not threading.main_thread():
        return  # pragma: no cover - signal.signal would raise here
    try:
        current = signal.getsignal(signal.SIGTERM)
    except (ValueError, OSError):  # pragma: no cover - exotic platform
        return
    if current not in (signal.SIG_DFL, None):
        return

    def _on_sigterm(signum, frame):
        try:
            from repro.runtime.pool import shutdown_pools
            shutdown_pools()
        except Exception:
            pass
        try:
            release_all()
        finally:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)

    signal.signal(signal.SIGTERM, _on_sigterm)


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (conservatively True)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # pragma: no cover - EPERM: alive, not ours
        return True
    return True


def sweep_stale_segments() -> int:
    """Unlink segments whose exporting process is provably dead.

    Runs at every pool startup.  A segment is removed only when its
    name carries an owner PID and ``kill(pid, 0)`` proves that process
    gone — live owners, our own exports, and unparseable names are all
    left alone, so concurrent runs on one host never reap each other.
    Returns the number of segments unlinked.
    """
    shm_dir = _SHM_DIR
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return 0
    own = os.getpid()
    prefix = SEGMENT_PREFIX + "_"
    swept = 0
    for name in os.listdir(shm_dir):
        if not name.startswith(prefix):
            continue
        pid_text = name[len(prefix):].split("_", 1)[0]
        try:
            pid = int(pid_text)
        except ValueError:
            continue  # foreign or legacy name: not ours to judge
        if pid == own or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(shm_dir, name))
        except OSError:  # pragma: no cover - lost a race with a peer
            continue
        swept += 1
    if swept:
        get_metrics().counter("shm.segments_swept").inc(swept)
    return swept


def attach(name: str) -> shared_memory.SharedMemory:
    """Map another process's segment without adopting it."""
    # bpo-38119: before 3.13, attaching also registers the segment with
    # the resource tracker, which would unlink it (and warn) when the
    # attaching process exits.  Worse, spawned workers inherit the
    # *parent's* tracker process, so a worker-side ``unregister`` would
    # drop the exporter's own registration and make the exporter's
    # ``unlink`` warn instead.  Suppress registration during the attach:
    # only the exporter's create-time registration survives.
    try:  # pragma: no cover - depends on interpreter version
        from multiprocessing import resource_tracker
        orig = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig
    except ImportError:
        return shared_memory.SharedMemory(name=name)


def import_graph(handle: SharedGraphHandle) -> CSRGraph:
    """Map an exported graph read-only, skipping construction work.

    The returned graph's arrays are views into the shared segments;
    the ``SharedMemory`` objects ride on the instance so the mappings
    outlive any caller-held array views.
    """
    segments: List[shared_memory.SharedMemory] = []
    views: Dict[str, np.ndarray] = {}
    try:
        for name, (seg, dtype, shape) in handle.arrays.items():
            shm = attach(seg)
            segments.append(shm)
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
            view.flags.writeable = False
            views[name] = view
    except BaseException:
        for shm in segments:
            shm.close()
        raise
    graph = CSRGraph.__new__(CSRGraph)
    graph.indptr = views["indptr"]
    graph.indices = views["indices"]
    graph.weights = views.get("weights")
    graph.name = handle.graph_name
    graph.degrees_array = views["degrees"]
    if "wrowmax" in views:
        graph._row_max_cache = views["wrowmax"]
    graph._shm_refs = segments
    return graph


def leaked_segments() -> List[str]:
    """Names of this module's segments still present in ``/dev/shm``
    (test helper; empty list on platforms without /dev/shm)."""
    shm_dir = _SHM_DIR
    if not os.path.isdir(shm_dir):  # pragma: no cover
        return []
    return sorted(n for n in os.listdir(shm_dir)
                  if n.startswith(SEGMENT_PREFIX))
