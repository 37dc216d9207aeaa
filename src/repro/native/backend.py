"""Kernel backend interface, selection, and the compiled backend.

The per-step hot kernels — individual-step neighbor draws (uniform,
weighted, node2vec rejection), collective gather, LADIES' two-level
draw, collective edge recording, row dedupe and step assembly — run
behind a :class:`KernelBackend`.  Two implementations exist:

``numpy``
    the default: every hook returns ``None`` and the caller falls
    through to the vectorised numpy code, untouched;
``cnative``
    the same kernels as C (:mod:`repro.native._csrc`, the one compiled
    source), built once with the host toolchain and called through
    ctypes (:mod:`repro.native.cnative`).

Selection: explicit name > ``$REPRO_BACKEND`` > ``numpy``.  The
resolved choice is exported as the ``runtime.backend_active`` gauge
(:data:`BACKEND_IDS`).

Parity contract (the reason hooks may return ``None`` at any point):
every hook either produces *exactly* what the numpy code would have
produced — same values, same dtypes, same RNG draws in the same order
— or declines (``None``) **before touching the generator**, so the
numpy fallback replays from an identical stream position.  The numpy
generator is the only thing that draws: a hook draws the doubles the
numpy code would draw, with the same ``rng.random`` calls, and C only
reads them.  The backend loads whole or falls back whole: a library
that fails to build or load is one failure — one compiler run, one
warning, one ``native.compile_failures`` count — and every hook
declines from then on.  The signatures are declared when the library
loads, so a kernel call has no failure of its own to recover from: one
that raised would fail its chunk like any other chunk exception
(docs/RESILIENCE.md).
"""

from __future__ import annotations

import contextlib
import os
import warnings
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.api.types import NULL_VERTEX
from repro.graph.csr import VERTEX_DTYPE
from repro.obs import get_metrics

__all__ = [
    "BACKEND_ENV",
    "BACKEND_NAMES",
    "BACKEND_IDS",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "NumpyBackend",
    "CNativeBackend",
    "resolve_backend_name",
    "set_backend",
    "active_backend",
    "active_backend_name",
    "backend_scope",
    "available_backends",
]

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV = "REPRO_BACKEND"

#: Accepted ``--backend`` / ``$REPRO_BACKEND`` values.
BACKEND_NAMES = ("numpy", "cnative")

#: Backend -> ``runtime.backend_active`` gauge value (1 is retired:
#: dashboards must not read an old series as a new backend).
BACKEND_IDS = {"numpy": 0, "cnative": 2}

DEFAULT_BACKEND = "numpy"


class KernelBackend:
    """Hot-kernel dispatch points.

    Every hook may return ``None``, meaning "use the numpy code"; the
    base class always does.  Implementations must honor the parity
    contract in the module docstring.  The individual-step draws write
    pair ``k``'s picks to ``out_rows[rows[k]]`` as numpy's ``out_rows[rows]
    = picks`` would and return ``out_rows`` (no destination: a fresh
    ``(K, m)``)."""

    #: Resolved implementation name (a key of :data:`BACKEND_IDS`).
    name = "numpy"

    def available(self) -> bool:
        """Whether this backend can run at all on this host."""
        return True

    def warm_up(self) -> None:
        """Do any one-off compilation before the first real chunk so
        per-chunk timings are honest.  Idempotent."""

    # -- hooks (None => numpy fallback) --------------------------------

    def uniform_neighbors(self, graph, transits, m, rng,
                          out_rows=None, rows=None):
        return None

    def weighted_neighbors(self, graph, transits, m, rng,
                           out_rows=None, rows=None):
        return None

    def node2vec_neighbors(self, graph, transits, prev_transits,
                           p, q, max_rounds, rng, out_rows=None, rows=None):
        return None

    def ragged_gather(self, values, starts, counts, offsets, total):
        return None

    def dedupe_rows(self, rows):
        return None

    def edge_hits(self, graph, transits, new_vertices, block_rows):
        return None

    def two_level_pick(self, graph, ecs, mass, lo, hi, pair_t, draws):
        return None

    # -- no caller: the names stay because the perf ledger instruments
    # hooks by attribute.  The scheduling index is one packed numpy
    # sort (core/transit_map.py), a segment choice is the uniform draw
    # over the segments, and the draws write their own rows.

    def grouping(self, vals):
        return None

    def segment_choice(self, values, offsets, m, rng):
        return None

    def scatter_rows(self, out_rows, sampled, rows):
        out_rows[rows] = sampled
        return out_rows


class NumpyBackend(KernelBackend):
    """The current vectorised numpy code, selected explicitly."""


def _plain(dtype, *arrays) -> bool:
    """Whether every array can be handed to C as it is."""
    return all(isinstance(a, np.ndarray) and a.dtype == dtype
               and a.flags.c_contiguous for a in arrays)


def _destination(out_rows, rows, n, m):
    """``(out_rows, rows pointer, row count)`` for a C fill of ``n``
    pairs ``m`` wide (no destination: a fresh one, NULL ``rows``), or
    ``None`` when C cannot write the given one as it is."""
    if out_rows is None:
        return np.empty((n, m), dtype=VERTEX_DTYPE), None, n
    if (_plain(VERTEX_DTYPE, out_rows) and _plain(np.int64, rows)
            and out_rows.flags.writeable
            and out_rows.ndim == 2 and out_rows.shape[1] == m
            and rows.shape == (n,)):
        return out_rows, rows.ctypes.data, out_rows.shape[0]
    return None


class CNativeBackend(KernelBackend):
    """The kernels of :mod:`repro.native._csrc`, compiled once with the
    host toolchain and called through ctypes.

    Each hook does the eligibility counting and draws the numpy code's
    doubles in Python, then hands raw array addresses plus explicit
    lengths to the C symbol.  Every hook declines once the library has
    failed to build or load.
    """

    name = "cnative"

    def __init__(self) -> None:
        self._lib = None
        #: True once the library failed to build or load.
        self._failed = False

    def available(self) -> bool:
        from repro.native import cnative
        return cnative.find_compiler() is not None

    def warm_up(self) -> None:
        """Build (or load the cached) library now, so a build failure
        is reported here and not inside the first timed chunk."""
        self._library()

    def _library(self):
        """The loaded library, or ``None`` once it failed to build or
        load."""
        if self._lib is None and not self._failed:
            from repro.native import cnative
            try:
                self._lib = cnative.load_library()
            except (RuntimeError, OSError, AttributeError) as exc:
                # AttributeError: a cached library that lacks a symbol.
                self._disable(exc)
            else:
                # None: the build already failed, and was reported, in
                # this process.
                self._failed = self._lib is None
        return self._lib

    def _disable(self, exc: BaseException) -> None:
        """Record the library's failure once; every hook declines from
        then on (the build is not retried)."""
        if self._failed:
            return
        self._failed = True
        get_metrics().counter("native.compile_failures").inc()
        warnings.warn(
            f"native backend {self.name!r}: every kernel disabled after "
            f"{type(exc).__name__}: {exc}; using numpy instead",
            RuntimeWarning, stacklevel=3)

    # -- individual-step draws -----------------------------------------

    def uniform_neighbors(self, graph, transits, m, rng,
                          out_rows=None, rows=None):
        return self._fill(False, graph, transits, m, rng, out_rows, rows)

    def weighted_neighbors(self, graph, transits, m, rng,
                           out_rows=None, rows=None):
        return self._fill(graph.is_weighted, graph, transits, m, rng,
                          out_rows, rows)

    def _fill(self, weighted, graph, transits, m, rng, out_rows, rows):
        """Count the live transits with an edge (checking every
        destination row), draw ``count * m`` doubles, run the uniform
        fill (on the CSR arrays) or the weighted one (on
        ``graph.weight_records()``) into the destination."""
        lib = self._library()
        if lib is None:
            return None
        transits = np.ascontiguousarray(transits, dtype=VERTEX_DTYPE)
        dest = _destination(out_rows, rows, transits.size, m)
        if dest is None:
            return None
        out, rows_p, nrows = dest
        csr, transits_p = graph.addresses(), transits.ctypes.data
        count = lib.repro_uniform_count(transits_p, transits.size, csr[2],
                                        NULL_VERTEX, rows_p, nrows)
        if count < 0:   # a row out of range: numpy's indexing decides
            return None
        if weighted:
            fill, head, tail = (lib.repro_weighted_fill,
                                graph.addresses(weighted=True), (count,))
        else:
            fill, head, tail = lib.repro_uniform_fill, csr, ()
        r = rng.random(size=count * m)
        fill(*head, transits_p, transits.size, m, *tail, r.ctypes.data,
             out.ctypes.data, rows_p, NULL_VERTEX)
        return out

    # -- collective selection ------------------------------------------

    def two_level_pick(self, graph, ecs, mass, lo, hi, pair_t, draws):
        """LADIES' two bisections over the already-drawn ``(live, m)``
        ``draws``: the picked vertices, same shape, or ``None``."""
        lib = self._library()
        if lib is None or not (
                _plain(np.float64, ecs, mass, draws)
                and _plain(np.int64, lo, hi) and _plain(VERTEX_DTYPE, pair_t)
                and draws.ndim == 2 and pair_t.shape == mass.shape
                and lo.shape == hi.shape == draws.shape[:1]):
            return None
        out = np.empty(draws.shape, dtype=VERTEX_DTYPE)
        lib.repro_two_level_pick(
            mass.ctypes.data, lo.ctypes.data, hi.ctypes.data,
            pair_t.ctypes.data, draws.ctypes.data, *draws.shape,
            *graph.addresses(), ecs.ctypes.data, out.ctypes.data)
        return out

    # -- collective edge recording -------------------------------------

    def edge_hits(self, graph, transits, new_vertices, block_rows):
        """``FastGCN.record_step_edges``' ``(n, 3)`` rows: a hit bit per
        probe (one bitmap per ``block_rows`` sample rows), then the set
        bits as rows.  No scratch outlives the call."""
        lib = self._library()
        if lib is None or block_rows < 1 or not (
                _plain(VERTEX_DTYPE, transits, new_vertices)
                and transits.ndim == new_vertices.ndim == 2
                and transits.shape[0] == new_vertices.shape[0]):
            return None
        shape = (*transits.shape, new_vertices.shape[1])
        masks = np.empty(transits.size * ((shape[2] + 63) >> 6),
                         dtype=np.uint64)
        arrays = (transits.ctypes.data, new_vertices.ctypes.data)
        count = lib.repro_edge_mask(*graph.addresses(), graph.num_vertices,
                                    *arrays, *shape, block_rows,
                                    masks.ctypes.data)
        if count < 0:   # no memory for the scratch: numpy's turn
            return None
        out = np.empty((count, 3), dtype=VERTEX_DTYPE)
        lib.repro_edge_emit(*arrays, *shape, masks.ctypes.data,
                            out.ctypes.data)
        return out

    # -- node2vec rejection sampling -----------------------------------

    def node2vec_neighbors(self, graph, transits, prev_transits,
                           p, q, max_rounds, rng, out_rows=None, rows=None):
        """Returns ``(out_rows, eligible, proposals, probes)`` or
        ``None``.

        numpy's rejection rounds, one C call each: round 0 lists the
        pairs with an edge (or declines at a row out of range, before
        any draw); each later round draws ``rng.random(2 * pending)`` —
        the stream of numpy's pick and accept calls — and keeps the
        rejected pairs pending.
        """
        lib = self._library()
        if lib is None:
            return None
        transits = np.ascontiguousarray(transits, dtype=VERTEX_DTYPE)
        n = transits.size
        dest = _destination(out_rows, rows, n, 1)
        if dest is None:
            return None
        out, rows_p, nrows = dest
        prev = (None if prev_transits is None
                else np.ascontiguousarray(prev_transits, dtype=VERTEX_DTYPE))
        weights = row_max = None
        if graph.is_weighted:
            weights, row_max = graph.weights, graph.row_max_weight()
        pending = np.empty(n, dtype=np.int64)
        counters = np.zeros(2, dtype=np.int64)
        args = (*graph.addresses(),
                *(None if a is None else a.ctypes.data
                  for a in (weights, row_max, transits, prev)),
                max(p, 1.0 / q, 1.0), p, 1.0 / q, NULL_VERTEX,
                out.ctypes.data, rows_p, nrows, pending.ctypes.data,
                counters.ctypes.data)
        left = eligible = lib.repro_node2vec_round(*args, None, n, 0)
        if eligible < 0:
            return None
        rounds = 0
        while left and rounds < max_rounds:
            rounds += 1
            r = rng.random(size=2 * left)
            left = lib.repro_node2vec_round(*args, r.ctypes.data, left,
                                            rounds == max_rounds)
        return out, eligible, int(counters[0]), int(counters[1])

    # -- collective gather + dedupe ------------------------------------

    def ragged_gather(self, values, starts, counts, offsets, total):
        values = np.asarray(values)
        lib = self._library()
        if (lib is None or values.dtype.hasobject
                or not values.flags.c_contiguous):
            return None
        starts, counts, offsets = (np.ascontiguousarray(a, dtype=np.int64)
                                   for a in (starts, counts, offsets))
        out = np.empty(int(total), dtype=values.dtype)
        lib.repro_gather(values.ctypes.data, starts.ctypes.data,
                         counts.ctypes.data, offsets.ctypes.data, starts.size,
                         values.itemsize, out.ctypes.data)
        return out

    def dedupe_rows(self, rows):
        """Returns ``(deduped_copy, dup_count)`` or ``None``."""
        rows = np.asarray(rows)
        lib = self._library()
        if lib is None or rows.dtype != VERTEX_DTYPE or rows.ndim != 2:
            return None
        out = rows.copy()
        dups = lib.repro_dedupe_rows(out.ctypes.data, out.shape[0],
                                     out.shape[1], NULL_VERTEX)
        return out, dups


# -- selection ----------------------------------------------------------

_ACTIVE: Optional[KernelBackend] = None


def resolve_backend_name(explicit: Optional[str] = None) -> str:
    """Explicit name > ``$REPRO_BACKEND`` > ``numpy`` (documented CLI
    precedence, see docs/CLI.md)."""
    name = explicit
    if name is None:
        name = os.environ.get(BACKEND_ENV, "").strip() or DEFAULT_BACKEND
    name = name.lower()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; choose from "
            f"{', '.join(BACKEND_NAMES)}")
    return name


def _make(name: str) -> KernelBackend:
    return CNativeBackend() if name == "cnative" else NumpyBackend()


def set_backend(name: Optional[str] = None) -> KernelBackend:
    """Resolve, warm up, and activate a backend process-wide."""
    global _ACTIVE
    backend = _make(resolve_backend_name(name))
    backend.warm_up()
    _ACTIVE = backend
    get_metrics().gauge("runtime.backend_active").set(
        float(BACKEND_IDS[backend.name]))
    return backend


def active_backend() -> KernelBackend:
    """The process-wide backend, resolving env/default on first use."""
    global _ACTIVE
    if _ACTIVE is None:
        set_backend(None)
    return _ACTIVE


def active_backend_name() -> str:
    return active_backend().name


@contextlib.contextmanager
def backend_scope(name: Optional[str]) -> Iterator[KernelBackend]:
    """Activate a backend for a ``with`` block, then restore."""
    global _ACTIVE
    prev = _ACTIVE
    backend = set_backend(name)
    try:
        yield backend
    finally:
        _ACTIVE = prev
        if prev is not None:
            get_metrics().gauge("runtime.backend_active").set(
                float(BACKEND_IDS[prev.name]))


def available_backends() -> Tuple[str, ...]:
    """Backends that can run on this host: ``numpy``, plus ``cnative``
    when a C toolchain is on the PATH."""
    return tuple(n for n in BACKEND_NAMES if _make(n).available())
