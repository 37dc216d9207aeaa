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
numpy fallback replays from an identical stream position.  The one
exception is a kernel failing *after* its block of doubles was drawn;
the numpy kernel then runs on that same block (:class:`_Drawn`),
keeping the stream aligned (``two_level_pick`` needs none:
its caller drew, and carries on in numpy).  Failures are recorded once per
kernel (warning + ``native.compile_failures`` counter) and the kernel
is disabled for the rest of the process — every other kernel stays
compiled.  A library that fails to *build* is one failure: one
compiler run, one warning, one count, every hook declines.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.api.types import NULL_VERTEX
from repro.native import rngshim
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
    #: True when kernels run outside the interpreter.
    compiled = False

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


class _Drawn:
    """A generator handing out the block of doubles a failed C kernel
    drew — numpy's kernel asks for it in one call, in the same order."""

    def __init__(self, r: np.ndarray) -> None:
        self.r = r

    def random(self, size):
        return self.r.reshape(size)


#: ``_failed`` entry meaning the library itself did not build or load.
_LIBRARY = "library"

#: Largest vertex id the weighted C draw returns (edge records are int32).
ID32_MAX = int(np.iinfo(np.int32).max)


def _plain(dtype, *arrays) -> bool:
    """Whether every array can be handed to C as it is."""
    return all(isinstance(a, np.ndarray) and a.dtype == dtype
               and a.flags.c_contiguous for a in arrays)


def _destination(out_rows, rows, n, m):
    """``(out_rows, rows pointer, row count)`` for a C fill of ``n``
    pairs ``m`` wide (no destination: a fresh one, NULL ``rows``), or
    ``None`` when C cannot write the given one as it is."""
    if out_rows is None:
        return np.empty((n, m), dtype=np.int64), None, n
    if (_plain(np.int64, out_rows, rows) and out_rows.flags.writeable
            and out_rows.ndim == 2 and out_rows.shape[1] == m
            and rows.shape == (n,)):
        return out_rows, rows.ctypes.data, out_rows.shape[0]
    return None


class CNativeBackend(KernelBackend):
    """The kernels of :mod:`repro.native._csrc`, compiled once with the
    host toolchain and called through ctypes.

    Each hook does the eligibility counting and the RNG pre-draw (or
    the node2vec shim handshake) in Python, hands raw array addresses
    plus explicit lengths to the C symbol, and degrades per kernel: a
    kernel that fails is disabled and its hook declines from then on.
    """

    name = "cnative"
    compiled = True

    def __init__(self) -> None:
        self._lib = None
        self._failed: set = set()

    def available(self) -> bool:
        from repro.native import cnative
        return cnative.find_compiler() is not None

    def warm_up(self) -> None:
        """Build (or load the cached) library now, so a build failure
        is reported here and not inside the first timed chunk."""
        self._kernel("pcg_fill")

    def _kernel(self, name: str):
        """C function ``repro_<name>``, or ``None`` when it — or the
        whole library — has been disabled."""
        if name in self._failed or _LIBRARY in self._failed:
            return None
        if self._lib is None:
            from repro.native import cnative
            try:
                self._lib = cnative.load_library()
            except (RuntimeError, OSError, AttributeError) as exc:
                # AttributeError: a cached library that lacks a symbol.
                self._disable(_LIBRARY, exc)
                return None
            if self._lib is None:
                # The build already failed, and was reported, in this
                # process.
                self._failed.add(_LIBRARY)
                return None
        return getattr(self._lib, "repro_" + name)

    def _disable(self, name: str, exc: BaseException) -> None:
        """Record a failure once and fall back to numpy: for kernel
        ``name`` only, or for every kernel when ``name`` is
        :data:`_LIBRARY` (the build failed and is not retried)."""
        if name in self._failed:
            return
        self._failed.add(name)
        get_metrics().counter("native.compile_failures").inc()
        what = "every kernel" if name == _LIBRARY else f"kernel {name!r}"
        warnings.warn(
            f"native backend {self.name!r}: {what} disabled after "
            f"{type(exc).__name__}: {exc}; using numpy instead",
            RuntimeWarning, stacklevel=3)

    # -- individual-step draws -----------------------------------------

    def uniform_neighbors(self, graph, transits, m, rng,
                          out_rows=None, rows=None):
        return self._fill("uniform_fill", graph, transits, m, rng,
                          out_rows, rows)

    def weighted_neighbors(self, graph, transits, m, rng,
                           out_rows=None, rows=None):
        if not graph.is_weighted:
            return self.uniform_neighbors(graph, transits, m, rng,
                                          out_rows, rows)
        if graph.num_vertices - 1 > ID32_MAX:
            return None
        return self._fill("weighted_fill", graph, transits, m, rng,
                          out_rows, rows)

    def _fill(self, name, graph, transits, m, rng, out_rows, rows):
        """Count the live transits with an edge (checking every
        destination row), draw ``count * m`` doubles, run fill kernel
        ``name`` (the uniform one reads the CSR arrays, the weighted one
        ``graph.weight_records()``) into the destination."""
        count_k = self._kernel("uniform_count")
        fill_k = self._kernel(name)
        if count_k is None or fill_k is None:
            return None
        transits = np.ascontiguousarray(transits, dtype=np.int64)
        dest = _destination(out_rows, rows, transits.size, m)
        if dest is None:
            return None
        out, rows_p, nrows = dest
        csr, transits_p = graph.addresses(), transits.ctypes.data
        try:
            count = count_k(transits_p, transits.size, csr[2], NULL_VERTEX,
                            rows_p, nrows)
        except Exception as exc:
            self._disable("uniform_count", exc)
            return None
        if count < 0:   # a row out of range: numpy's indexing decides
            return None
        if name == "weighted_fill":
            head, tail = graph.addresses(weighted=True), (count,)
        else:
            head, tail = csr, ()
        r = rng.random(size=count * m)
        try:
            fill_k(*head, transits_p, transits.size, m, *tail,
                   r.ctypes.data, out.ctypes.data, rows_p, NULL_VERTEX)
        except Exception as exc:
            self._disable(name, exc)
            from repro.api.apps import _kernels
            rescue = (_kernels._weighted_numpy if name == "weighted_fill"
                      else _kernels._uniform_numpy)
            picks = rescue(graph, transits, m, _Drawn(r))
            if out_rows is None:
                return picks
            out_rows[rows] = picks
        return out

    # -- collective selection ------------------------------------------

    def two_level_pick(self, graph, ecs, mass, lo, hi, pair_t, draws):
        """LADIES' two bisections over the already-drawn ``(live, m)``
        ``draws``: the picked vertices, same shape, or ``None``."""
        kernel = self._kernel("two_level_pick")
        if kernel is None or not (
                _plain(np.float64, ecs, mass, draws)
                and _plain(np.int64, lo, hi, pair_t)
                and draws.ndim == 2 and pair_t.shape == mass.shape
                and lo.shape == hi.shape == draws.shape[:1]):
            return None
        out = np.empty(draws.shape, dtype=np.int64)
        try:
            kernel(mass.ctypes.data, lo.ctypes.data, hi.ctypes.data,
                   pair_t.ctypes.data, draws.ctypes.data, *draws.shape,
                   *graph.addresses(), ecs.ctypes.data, out.ctypes.data)
        except Exception as exc:
            self._disable("two_level_pick", exc)
            return None
        return out

    # -- collective edge recording -------------------------------------

    def edge_hits(self, graph, transits, new_vertices, block_rows):
        """``FastGCN.record_step_edges``' ``(n, 3)`` rows: a hit bit per
        probe (one bitmap per ``block_rows`` sample rows), then the set
        bits as rows.  No scratch outlives the call."""
        mask_k, emit_k = self._kernel("edge_mask"), self._kernel("edge_emit")
        if mask_k is None or emit_k is None or block_rows < 1 or not (
                _plain(np.int64, transits, new_vertices)
                and transits.ndim == new_vertices.ndim == 2
                and transits.shape[0] == new_vertices.shape[0]):
            return None
        shape = (*transits.shape, new_vertices.shape[1])
        masks = np.empty(transits.size * ((shape[2] + 63) >> 6),
                         dtype=np.uint64)
        try:
            arrays = (transits.ctypes.data, new_vertices.ctypes.data)
            count = mask_k(*graph.addresses(), graph.num_vertices, *arrays,
                           *shape, block_rows, masks.ctypes.data)
            if count < 0:   # no memory for the scratch: numpy's turn
                return None
            out = np.empty((count, 3), dtype=np.int64)
            emit_k(*arrays, *shape, masks.ctypes.data, out.ctypes.data)
        except Exception as exc:
            # Either symbol: the pair is useless apart.
            self._disable("edge_mask", exc)
            return None
        return out

    # -- node2vec rejection sampling -----------------------------------

    def node2vec_neighbors(self, graph, transits, prev_transits,
                           p, q, max_rounds, rng, out_rows=None, rows=None):
        """Returns ``(out_rows, eligible, proposals, probes)`` or
        ``None``.

        Draws through the PCG64 shim; the generator is advanced only
        after the kernel succeeds, so a failure, a row out of range (or
        a non-PCG64 generator) falls back to the untouched numpy path.
        """
        kernel = self._kernel("node2vec_fill")
        if kernel is None:
            return None
        s = rngshim.state_words(rng)
        if s is None:
            return None
        transits = np.ascontiguousarray(transits, dtype=np.int64)
        n = transits.size
        dest = _destination(out_rows, rows, n, 1)
        if dest is None:
            return None
        out, rows_p, nrows = dest
        prev = (np.full(n, NULL_VERTEX, dtype=np.int64)
                if prev_transits is None
                else np.ascontiguousarray(prev_transits, dtype=np.int64))
        if graph.is_weighted:
            weights = graph.weights
            row_max = graph.row_max_weight()
        else:
            weights = row_max = np.zeros(1, dtype=np.float64)
        # The kernel's five n-word scratch arrays (pending, proposal,
        # bias, envelope, draws), carved from one block.
        scratch = np.empty(5 * n, dtype=np.float64)
        words = scratch.ctypes.data
        counters = np.zeros(4, dtype=np.int64)
        indptr, indices, degrees = graph.addresses()
        try:
            ok = kernel(indptr, indices, weights.ctypes.data,
                        int(graph.is_weighted), degrees, transits.ctypes.data,
                        n, prev.ctypes.data, 1, row_max.ctypes.data,
                        max(p, 1.0 / q, 1.0), p, 1.0 / q, max_rounds,
                        NULL_VERTEX, s.ctypes.data, out.ctypes.data, rows_p,
                        nrows, *(words + 8 * n * k for k in range(5)),
                        counters.ctypes.data)
        except Exception as exc:
            self._disable("node2vec_fill", exc)
            return None
        if ok < 0:
            return None
        rngshim.consume(rng, int(counters[3]))
        return out, int(counters[0]), int(counters[1]), int(counters[2])

    # -- collective gather + dedupe ------------------------------------

    def ragged_gather(self, values, starts, counts, offsets, total):
        values = np.asarray(values)
        if (values.dtype not in (np.int64, np.float64)
                or not values.flags.c_contiguous):
            return None
        name = "gather_f64" if values.dtype == np.float64 else "gather_i64"
        kernel = self._kernel(name)
        if kernel is None:
            return None
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        out = np.empty(int(total), dtype=values.dtype)
        try:
            kernel(values.ctypes.data, starts.ctypes.data,
                   counts.ctypes.data, offsets.ctypes.data, starts.size,
                   out.ctypes.data)
        except Exception as exc:
            self._disable(name, exc)
            return None
        return out

    def dedupe_rows(self, rows):
        """Returns ``(deduped_copy, dup_count)`` or ``None``."""
        kernel = self._kernel("dedupe_rows")
        if kernel is None:
            return None
        rows = np.asarray(rows)
        if rows.dtype != np.int64 or rows.ndim != 2:
            return None
        out = rows.copy()
        try:
            dups = kernel(out.ctypes.data, out.shape[0], out.shape[1],
                          NULL_VERTEX)
        except Exception as exc:
            self._disable("dedupe_rows", exc)
            return None
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
