"""Kernel backend interface, selection, and compiled orchestration.

The per-step hot kernels — individual-step neighbor draws (uniform,
weighted, node2vec rejection), the radix-sort scheduling index,
collective gather, and row dedupe — run behind a
:class:`KernelBackend`.  Three implementations exist:

``numpy``
    the default: every hook returns ``None`` and the caller falls
    through to the existing vectorised numpy code, untouched;
``numba``
    the kernel bodies of :mod:`repro.native.kernels_py` compiled with
    ``numba.njit(nogil=True, cache=True)`` when numba is installed
    (``pip install .[native]``), or run interpreted (bit-identical,
    slow — parity testing on hosts without numba) when it is not;
``cnative``
    the same kernels as C, compiled once with the host toolchain and
    loaded via ctypes (:mod:`repro.native.cnative`) — the fast path on
    machines that have a C compiler but no numba wheel.

Selection: explicit name > ``$REPRO_BACKEND`` > ``numpy``; ``auto``
resolves to numba when importable and otherwise falls back to numpy
with a single warning.  The resolved choice is exported as the
``runtime.backend_active`` gauge (:data:`BACKEND_IDS`).

Parity contract (the reason hooks may return ``None`` at any point):
every hook either produces *exactly* what the numpy code would have
produced — same values, same dtypes, same RNG draws in the same order
— or declines (``None``) **before touching the generator**, so the
numpy fallback replays from an identical stream position.  The one
exception is a kernel failing *after* its block of doubles was drawn;
the ``*_from_draws`` rescues below then consume that same block with
numpy ops, keeping the stream aligned.  Failures are recorded once per
kernel (warning + ``native.compile_failures`` counter) and the kernel
is disabled for the rest of the process — every other kernel stays
compiled.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.api.types import NULL_VERTEX
from repro.native import rngshim
from repro.obs import events, get_metrics

__all__ = [
    "BACKEND_ENV",
    "BACKEND_NAMES",
    "BACKEND_IDS",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "NumpyBackend",
    "CompiledBackend",
    "NumbaBackend",
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
BACKEND_NAMES = ("auto", "numpy", "numba", "cnative")

#: Resolved backend -> ``runtime.backend_active`` gauge value.
BACKEND_IDS = {"numpy": 0, "numba": 1, "cnative": 2}

DEFAULT_BACKEND = "numpy"


class KernelBackend:
    """Hot-kernel dispatch points.

    Every hook may return ``None``, meaning "use the numpy code"; the
    base class always does.  Implementations must honor the parity
    contract in the module docstring.
    """

    #: Resolved implementation name (a key of :data:`BACKEND_IDS`).
    name = "numpy"
    #: True when kernels run outside the interpreter (numba or C).
    compiled = False

    def available(self) -> bool:
        """Whether this backend can run at all on this host."""
        return True

    def warm_up(self) -> None:
        """Force kernel compilation before the first real chunk so
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
        return None

    def ragged_gather(self, values, starts, counts, offsets, total):
        return None

    def dedupe_rows(self, rows):
        return None

    def scatter_rows(self, out, sampled, sample_ids, cols, m):
        # No backend compiles this and the runtime never calls it (step
        # assembly is a numpy row scatter, core/stepper.py); the name
        # stays because the perf ledger instruments hooks by attribute.
        return None


class NumpyBackend(KernelBackend):
    """The current vectorised numpy code, selected explicitly."""


# -- numpy rescues consuming an already-drawn block --------------------
#
# These replicate the tail of the corresponding numpy kernels exactly
# (same picks arithmetic, same searchsorted), but take the pre-drawn
# doubles instead of the generator — used only when a compiled fill
# kernel fails after its block was drawn, so the stream stays aligned.

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
    idx = _eligible_indices(graph, transits)
    t = transits[idx]
    starts = graph.indptr[t]
    ends = starts + graph.degrees_array[t]
    cumsum = graph.global_weight_cumsum()
    row_base, row_total = graph.weight_row_spans()
    targets = row_base[t] + r.reshape(m, t.size) * row_total[t]
    pos = np.searchsorted(cumsum, targets, side="right")
    pos = np.minimum(pos, ends - 1)
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


class CompiledBackend(KernelBackend):
    """Shared orchestration over a table of compiled kernels.

    Subclasses provide :meth:`_build` (name -> callable with the
    :mod:`repro.native.kernels_py` signature); this class provides the
    eligibility counting, RNG pre-draw blocks, the node2vec shim
    handshake, and per-kernel graceful degradation.
    """

    compiled = True
    #: Interpreted uint64 arithmetic warns on intentional wraparound;
    #: set by subclasses that may run the Python bodies directly.
    _suppress_overflow = False

    def __init__(self) -> None:
        self._table: Dict[str, object] = {}
        self._failed: set = set()
        self._warmed = False

    def _build(self, name: str):
        raise NotImplementedError

    def _get(self, name: str):
        if name in self._failed:
            return None
        kernel = self._table.get(name)
        if kernel is None:
            try:
                kernel = self._build(name)
            except Exception as exc:
                self._disable(name, exc)
                return None
            self._table[name] = kernel
        return kernel

    def _disable(self, name: str, exc: BaseException) -> None:
        """Record a kernel failure once and fall back to numpy for that
        kernel only (satellite: graceful degradation)."""
        if name in self._failed:
            return
        self._failed.add(name)
        get_metrics().counter("native.compile_failures").inc()
        events.record("backend_fallback", kernel=name,
                      backend=self.name,
                      error=f"{type(exc).__name__}: {exc}")
        warnings.warn(
            f"native backend {self.name!r}: kernel {name!r} disabled "
            f"after {type(exc).__name__}: {exc}; using numpy for this "
            f"kernel", RuntimeWarning, stacklevel=3)

    def _call(self, kernel, *args):
        if self._suppress_overflow:
            with np.errstate(over="ignore"):
                return kernel(*args)
        return kernel(*args)

    # -- individual-step draws -----------------------------------------

    def uniform_neighbors(self, graph, transits, m, rng):
        count_k = self._get("uniform_count")
        fill_k = self._get("uniform_fill")
        if count_k is None or fill_k is None:
            return None
        transits = np.ascontiguousarray(transits, dtype=np.int64)
        out = np.full((transits.size, m), NULL_VERTEX, dtype=np.int64)
        if m == 0:
            return out
        degrees = graph.degrees_array
        try:
            count = int(self._call(count_k, transits, degrees,
                                   NULL_VERTEX))
        except Exception as exc:
            self._disable("uniform_count", exc)
            return None
        if count == 0:
            return out
        r = rng.random(size=count * m)
        try:
            self._call(fill_k, graph.indptr, graph.indices, degrees,
                       transits, m, r, out, NULL_VERTEX)
        except Exception as exc:
            self._disable("uniform_fill", exc)
            return _uniform_from_draws(graph, transits, m, r)
        return out

    def weighted_neighbors(self, graph, transits, m, rng):
        if not graph.is_weighted:
            return self.uniform_neighbors(graph, transits, m, rng)
        count_k = self._get("uniform_count")
        fill_k = self._get("weighted_fill")
        if count_k is None or fill_k is None:
            return None
        transits = np.ascontiguousarray(transits, dtype=np.int64)
        out = np.full((transits.size, m), NULL_VERTEX, dtype=np.int64)
        if m == 0:
            return out
        degrees = graph.degrees_array
        try:
            count = int(self._call(count_k, transits, degrees,
                                   NULL_VERTEX))
        except Exception as exc:
            self._disable("uniform_count", exc)
            return None
        if count == 0:
            return out
        cumsum = graph.global_weight_cumsum()
        row_base, row_total = graph.weight_row_spans()
        r = rng.random(size=m * count)
        try:
            self._call(fill_k, graph.indptr, graph.indices, degrees,
                       cumsum, row_base, row_total, transits, m, count,
                       r, out, NULL_VERTEX)
        except Exception as exc:
            self._disable("weighted_fill", exc)
            return _weighted_from_draws(graph, transits, m, r)
        return out

    # -- collective selection ------------------------------------------

    def segment_choice(self, values, offsets, m, rng):
        count_k = self._get("segment_count")
        fill_k = self._get("segment_fill")
        if count_k is None or fill_k is None:
            return None
        values = np.asarray(values)
        if values.dtype != np.int64 or not values.flags.c_contiguous:
            return None
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        out = np.full((offsets.size - 1, m), NULL_VERTEX, dtype=np.int64)
        if m == 0:
            return out
        try:
            count = int(self._call(count_k, offsets))
        except Exception as exc:
            self._disable("segment_count", exc)
            return None
        if count == 0:
            return out
        r = rng.random(size=count * m)
        try:
            self._call(fill_k, values, offsets, m, r, out)
        except Exception as exc:
            self._disable("segment_fill", exc)
            return _segment_from_draws(values, offsets, m, r)
        return out

    # -- node2vec rejection sampling -----------------------------------

    def node2vec_neighbors(self, graph, transits, prev_transits,
                           p, q, max_rounds, rng):
        """Returns ``(out, eligible, proposals, probes)`` or ``None``.

        Draws through the PCG64 shim; the generator is advanced only
        after the kernel succeeds, so a failure (or a non-PCG64
        generator) falls back to the untouched numpy path.
        """
        kernel = self._get("node2vec_fill")
        if kernel is None:
            return None
        if getattr(graph, "relabel_perm", None) is not None:
            # The compiled kernel binary-searches rows via indptr[v + 1]
            # and sorted-by-new-id neighbor lists — neither holds on a
            # relabeled graph.  Decline; the numpy path is bit-identical.
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
            is_weighted = 1
        else:
            weights = np.zeros(1, dtype=np.float64)
            row_max = np.zeros(1, dtype=np.float64)
            is_weighted = 0
        bias_env = max(p, 1.0 / q, 1.0)
        out = np.full(n, NULL_VERTEX, dtype=np.int64)
        pending = np.empty(n, dtype=np.int64)
        proposal = np.empty(n, dtype=np.int64)
        bias = np.empty(n, dtype=np.float64)
        envs = np.empty(n, dtype=np.float64)
        rbuf = np.empty(n, dtype=np.float64)
        counters = np.zeros(4, dtype=np.int64)
        try:
            self._call(kernel, graph.indptr, graph.indices, weights,
                       is_weighted, graph.degrees_array, transits, prev,
                       1, row_max, bias_env, p, 1.0 / q, max_rounds,
                       NULL_VERTEX, s, out, pending, proposal, bias,
                       envs, rbuf, counters)
        except Exception as exc:
            self._disable("node2vec_fill", exc)
            return None
        rngshim.consume(rng, int(counters[3]))
        return (out.reshape(n, 1), int(counters[0]), int(counters[1]),
                int(counters[2]))

    # -- scheduling index ----------------------------------------------

    def grouping(self, vals):
        """Returns the stable grouping permutation or ``None``."""
        kernel = self._get("grouping")
        if kernel is None:
            return None
        vals = np.ascontiguousarray(vals, dtype=np.int64)
        if vals.size == 0:
            return None
        hist = np.empty(1 << 16, dtype=np.int64)
        order = np.empty(vals.size, dtype=np.int64)
        tmp = np.empty(vals.size, dtype=np.int64)
        try:
            self._call(kernel, vals, hist, order, tmp)
        except Exception as exc:
            self._disable("grouping", exc)
            return None
        return order

    # -- collective gather + dedupe ------------------------------------

    def ragged_gather(self, values, starts, counts, offsets, total):
        kernel = self._get("ragged_gather")
        if kernel is None:
            return None
        values = np.asarray(values)
        if (values.dtype not in (np.int64, np.float64)
                or not values.flags.c_contiguous):
            return None
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        out = np.empty(int(total), dtype=values.dtype)
        try:
            self._call(kernel, values, starts, counts, offsets, out)
        except Exception as exc:
            self._disable("ragged_gather", exc)
            return None
        return out

    def dedupe_rows(self, rows):
        """Returns ``(deduped_copy, dup_count)`` or ``None``."""
        kernel = self._get("dedupe_rows")
        if kernel is None:
            return None
        rows = np.asarray(rows)
        if rows.dtype != np.int64 or rows.ndim != 2:
            return None
        out = rows.copy()
        try:
            dups = int(self._call(kernel, out, NULL_VERTEX))
        except Exception as exc:
            self._disable("dedupe_rows", exc)
            return None
        return out, dups

    # -- warm-up --------------------------------------------------------

    def warm_up(self) -> None:
        """Run every hook once on a tiny graph with production array
        types, so numba compiles (and the C library builds) before the
        first real chunk.  Kernel failures are captured per kernel."""
        if self._warmed:
            return
        self._warmed = True
        from repro.graph.csr import CSRGraph
        g = CSRGraph.from_edges(
            4, [(0, 1), (0, 2), (1, 0), (2, 1), (2, 3)], name="warmup")
        gw = g.with_random_weights(seed=0)
        rng = np.random.default_rng(0)
        transits = np.array([0, 1, -1, 3, 2], dtype=np.int64)
        prev = np.array([1, 0, -1, -1, 0], dtype=np.int64)
        self.uniform_neighbors(g, transits, 2, rng)
        self.weighted_neighbors(gw, transits, 2, rng)
        self.segment_choice(g.indices.copy(),
                            np.array([0, 2, 2, 5], dtype=np.int64), 2,
                            rng)
        self.node2vec_neighbors(g, transits, prev, 2.0, 0.5, 4, rng)
        self.node2vec_neighbors(gw, transits, prev, 2.0, 0.5, 4, rng)
        self.grouping(np.array([3, 1, 3, 0, 1], dtype=np.int64))
        starts = np.array([0, 2], dtype=np.int64)
        counts = np.array([2, 3], dtype=np.int64)
        offs = np.array([0, 2], dtype=np.int64)
        self.ragged_gather(g.indices, starts, counts, offs, 5)
        self.ragged_gather(gw.weights, starts, counts, offs, 5)
        self.dedupe_rows(np.array([[1, 1, 2], [0, 3, 0]],
                                  dtype=np.int64))
        kernel = self._get("pcg_fill")
        if kernel is not None:
            try:
                self._call(kernel,
                           np.array([1, 2, 3, 5], dtype=np.uint64),
                           np.empty(4, dtype=np.float64))
            except Exception as exc:
                self._disable("pcg_fill", exc)


class NumbaBackend(CompiledBackend):
    """kernels_py compiled with njit, or interpreted without numba."""

    name = "numba"

    def __init__(self) -> None:
        super().__init__()
        from repro.native import jit, kernels_py
        self._jit = jit
        self._bodies = kernels_py.kernel_table()
        self._suppress_overflow = not jit.HAVE_NUMBA

    def _build(self, name: str):
        return self._jit.compile_kernel(self._bodies[name])


class CNativeBackend(CompiledBackend):
    """kernels compiled from embedded C via the host toolchain."""

    name = "cnative"

    def __init__(self) -> None:
        super().__init__()
        self._lib = None

    def available(self) -> bool:
        from repro.native import cnative
        return cnative.toolchain_available()

    def _build(self, name: str):
        from repro.native import cnative
        if self._lib is None:
            self._lib = cnative.load_library()
        return cnative.bind(self._lib, name)

    def _disable(self, name, exc):
        # A library build failure takes every kernel down at once;
        # record each name as it is first requested.
        super()._disable(name, exc)


# -- selection ----------------------------------------------------------

_ACTIVE: Optional[KernelBackend] = None
_AUTO_WARNED = False


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


def _resolve_auto() -> KernelBackend:
    global _AUTO_WARNED
    from repro.native import jit
    if jit.HAVE_NUMBA:
        return NumbaBackend()
    if not _AUTO_WARNED:
        _AUTO_WARNED = True
        warnings.warn(
            "backend 'auto': numba is not installed; falling back to "
            "the numpy backend (pip install .[native] for compiled "
            "kernels, or --backend cnative to use the C toolchain)",
            RuntimeWarning, stacklevel=4)
    return NumpyBackend()


def _make(name: str) -> KernelBackend:
    if name == "auto":
        return _resolve_auto()
    if name == "numpy":
        return NumpyBackend()
    if name == "numba":
        return NumbaBackend()
    return CNativeBackend()


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
    """Concrete backends that can run on this host (numba counts even
    without the compiler: it runs interpreted, bit-identically)."""
    names = ["numpy", "numba"]
    if CNativeBackend().available():
        names.append("cnative")
    return tuple(names)
