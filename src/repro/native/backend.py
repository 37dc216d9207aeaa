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
the ``*_from_draws`` rescues below then consume that same block with
numpy ops, keeping the stream aligned (``two_level_pick`` needs none:
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
    base class always does (``scatter_rows`` *is* that code).
    Implementations must honor the parity contract in the module
    docstring.
    """

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

    def uniform_neighbors(self, graph, transits, m, rng):
        return None

    def weighted_neighbors(self, graph, transits, m, rng):
        return None

    def segment_choice(self, values, offsets, m, rng):
        return None

    def node2vec_neighbors(self, graph, transits, prev_transits,
                           p, q, max_rounds, rng):
        return None

    def grouping(self, vals):
        # No backend compiles this and the runtime never calls it (the
        # scheduling index is one packed numpy sort, core/transit_map.py);
        # the name stays because the perf ledger instruments hooks by
        # attribute.
        return None

    def ragged_gather(self, values, starts, counts, offsets, total):
        return None

    def dedupe_rows(self, rows):
        return None

    def edge_hits(self, graph, transits, new_vertices, block_rows):
        return None

    def two_level_pick(self, graph, ecs, mass, lo, hi, pair_t, draws):
        return None

    def scatter_rows(self, out_rows, sampled, rows):
        """Step assembly, in place; returns ``out_rows`` (it never
        declines).  The oracle every override must match."""
        out_rows[rows] = sampled
        return out_rows


class NumpyBackend(KernelBackend):
    """The current vectorised numpy code, selected explicitly."""


# -- numpy rescues consuming an already-drawn block --------------------
#
# These replicate the tail of the corresponding numpy kernels exactly
# (same picks arithmetic; the weighted one calls numpy's own
# ``weighted_picks``), but take the pre-drawn doubles instead of the
# generator — used only when a C fill kernel fails after its block was
# drawn, so the stream stays aligned.

def _eligible_indices(graph, transits):
    live = transits != NULL_VERTEX
    safe = np.where(live, transits, 0)
    return np.nonzero(live & (graph.degrees_array[safe] > 0))[0]


def _uniform_from_draws(graph, transits, m, r):
    idx = _eligible_indices(graph, transits)
    t = transits[idx]
    deg = graph.degrees_array[t]
    picks = (r.reshape(t.size, m) * deg[:, None]).astype(np.int64)
    picks = np.minimum(picks, (deg - 1)[:, None])
    out = np.full((transits.size, m), NULL_VERTEX, dtype=np.int64)
    out[idx] = graph.indices[graph.indptr[t][:, None] + picks]
    return out


def _weighted_from_draws(graph, transits, m, r):
    from repro.api.apps._kernels import weighted_picks
    idx = _eligible_indices(graph, transits)
    pos = weighted_picks(graph, transits[idx], r.reshape(m, idx.size))
    out = np.full((transits.size, m), NULL_VERTEX, dtype=np.int64)
    out[idx] = graph.indices[pos].T
    return out


def _segment_from_draws(values, offsets, m, r):
    sizes = np.diff(offsets)
    live = sizes > 0
    picks = (r.reshape(int(live.sum()), m)
             * sizes[live][:, None]).astype(np.int64)
    picks = np.minimum(picks, (sizes[live] - 1)[:, None])
    out = np.full((offsets.size - 1, m), NULL_VERTEX, dtype=np.int64)
    out[live] = values[offsets[:-1][live][:, None] + picks]
    return out


#: ``_failed`` entry meaning the library itself did not build or load.
_LIBRARY = "library"

#: Largest vertex id the weighted C draw returns (edge records are int32).
ID32_MAX = int(np.iinfo(np.int32).max)


def _plain(dtype, *arrays) -> bool:
    """Whether every array can be handed to C as it is."""
    return all(isinstance(a, np.ndarray) and a.dtype == dtype
               and a.flags.c_contiguous for a in arrays)


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

    def uniform_neighbors(self, graph, transits, m, rng):
        return self._fill("uniform_fill", graph, transits, m, rng)

    def weighted_neighbors(self, graph, transits, m, rng):
        if not graph.is_weighted:
            return self.uniform_neighbors(graph, transits, m, rng)
        if graph.num_vertices - 1 > ID32_MAX:
            return None
        return self._fill("weighted_fill", graph, transits, m, rng)

    def _fill(self, name, graph, transits, m, rng):
        """Count the live transits with an edge, draw ``count * m``
        doubles, run fill kernel ``name`` (the uniform one reads the
        CSR arrays, the weighted one ``graph.weight_records()``)."""
        count_k = self._kernel("uniform_count")
        fill_k = self._kernel(name)
        if count_k is None or fill_k is None:
            return None
        transits = np.ascontiguousarray(transits, dtype=np.int64)
        out = np.full((transits.size, m), NULL_VERTEX, dtype=np.int64)
        if m == 0:
            return out
        degrees = graph.degrees_array
        try:
            count = count_k(transits.ctypes.data, transits.size,
                            degrees.ctypes.data, NULL_VERTEX)
        except Exception as exc:
            self._disable("uniform_count", exc)
            return None
        if count == 0:
            return out
        if name == "weighted_fill":
            verts, edges = graph.weight_records()
            head, tail = (verts.ctypes.data, edges.ctypes.data), (count,)
            rescue = _weighted_from_draws
        else:
            head = (graph.indptr.ctypes.data, graph.indices.ctypes.data,
                    degrees.ctypes.data)
            tail, rescue = (), _uniform_from_draws
        r = rng.random(size=count * m)
        try:
            fill_k(*head, transits.ctypes.data, transits.size, m, *tail,
                   r.ctypes.data, out.ctypes.data, NULL_VERTEX)
        except Exception as exc:
            self._disable(name, exc)
            return rescue(graph, transits, m, r)
        return out

    # -- collective selection ------------------------------------------

    def segment_choice(self, values, offsets, m, rng):
        count_k = self._kernel("segment_count")
        fill_k = self._kernel("segment_fill")
        if count_k is None or fill_k is None:
            return None
        values = np.asarray(values)
        if not _plain(np.int64, values):
            return None
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        nseg = offsets.size - 1
        out = np.full((nseg, m), NULL_VERTEX, dtype=np.int64)
        if m == 0:
            return out
        try:
            count = count_k(offsets.ctypes.data, nseg)
        except Exception as exc:
            self._disable("segment_count", exc)
            return None
        if count == 0:
            return out
        r = rng.random(size=count * m)
        try:
            fill_k(values.ctypes.data, offsets.ctypes.data, nseg, m,
                   r.ctypes.data, out.ctypes.data)
        except Exception as exc:
            self._disable("segment_fill", exc)
            return _segment_from_draws(values, offsets, m, r)
        return out

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
                   graph.indptr.ctypes.data, graph.indices.ctypes.data,
                   graph.degrees_array.ctypes.data, ecs.ctypes.data,
                   out.ctypes.data)
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
            count = mask_k(
                graph.indptr.ctypes.data, graph.indices.ctypes.data,
                graph.degrees_array.ctypes.data, graph.num_vertices,
                transits.ctypes.data, new_vertices.ctypes.data, *shape,
                block_rows, masks.ctypes.data)
            if count < 0:   # no memory for the scratch: numpy's turn
                return None
            out = np.empty((count, 3), dtype=np.int64)
            emit_k(transits.ctypes.data, new_vertices.ctypes.data, *shape,
                   masks.ctypes.data, out.ctypes.data)
        except Exception as exc:
            # Either symbol: the pair is useless apart.
            self._disable("edge_mask", exc)
            return None
        return out

    # -- node2vec rejection sampling -----------------------------------

    def node2vec_neighbors(self, graph, transits, prev_transits,
                           p, q, max_rounds, rng):
        """Returns ``(out, eligible, proposals, probes)`` or ``None``.

        Draws through the PCG64 shim; the generator is advanced only
        after the kernel succeeds, so a failure (or a non-PCG64
        generator) falls back to the untouched numpy path.
        """
        kernel = self._kernel("node2vec_fill")
        if kernel is None:
            return None
        s = rngshim.state_words(rng)
        if s is None:
            return None
        transits = np.ascontiguousarray(transits, dtype=np.int64)
        n = transits.size
        if prev_transits is None:
            prev = np.full(n, NULL_VERTEX, dtype=np.int64)
        else:
            prev = np.ascontiguousarray(prev_transits, dtype=np.int64)
        if graph.is_weighted:
            weights = graph.weights
            row_max = graph.row_max_weight()
        else:
            weights = row_max = np.zeros(1, dtype=np.float64)
        out = np.full(n, NULL_VERTEX, dtype=np.int64)
        pending = np.empty(n, dtype=np.int64)
        proposal = np.empty(n, dtype=np.int64)
        bias = np.empty(n, dtype=np.float64)
        envs = np.empty(n, dtype=np.float64)
        rbuf = np.empty(n, dtype=np.float64)
        counters = np.zeros(4, dtype=np.int64)
        try:
            kernel(graph.indptr.ctypes.data, graph.indices.ctypes.data,
                   weights.ctypes.data, int(graph.is_weighted),
                   graph.degrees_array.ctypes.data, transits.ctypes.data,
                   n, prev.ctypes.data, 1, row_max.ctypes.data,
                   max(p, 1.0 / q, 1.0), p, 1.0 / q, max_rounds,
                   NULL_VERTEX, s.ctypes.data, out.ctypes.data,
                   pending.ctypes.data, proposal.ctypes.data,
                   bias.ctypes.data, envs.ctypes.data, rbuf.ctypes.data,
                   counters.ctypes.data)
        except Exception as exc:
            self._disable("node2vec_fill", exc)
            return None
        rngshim.consume(rng, int(counters[3]))
        return (out.reshape(n, 1), int(counters[0]), int(counters[1]),
                int(counters[2]))

    # -- step assembly -------------------------------------------------

    def scatter_rows(self, out_rows, sampled, rows):
        """The C row copy for plain int64 arrays; else numpy's."""
        kernel = self._kernel("scatter_rows")
        if (kernel is not None and _plain(np.int64, out_rows, sampled, rows)
                and out_rows.flags.writeable
                and out_rows.ndim == 2 and rows.ndim == 1
                and sampled.shape == (rows.size, out_rows.shape[1])):
            try:
                if kernel(out_rows.ctypes.data, out_rows.shape[0],
                          sampled.ctypes.data, rows.ctypes.data, rows.size,
                          sampled.shape[1]) == 0:
                    return out_rows
            except Exception as exc:
                self._disable("scatter_rows", exc)
        return super().scatter_rows(out_rows, sampled, rows)

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
