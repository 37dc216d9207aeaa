"""Build + ctypes bindings for the embedded C kernels.

The shared library is compiled once per (source hash, platform) into a
cache directory and memoised per process; :func:`bind` adapts each C
symbol to the exact Python-level signature of the corresponding
:mod:`repro.native.kernels_py` kernel, so
:class:`~repro.native.backend.CompiledBackend` orchestrates both
backends identically.

``-ffp-contract=off`` matters: FMA contraction of ``base + r * total``
would round differently from numpy and break bitwise parity.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Optional

import numpy as np

__all__ = ["toolchain_available", "find_compiler", "library_path",
           "build_library", "load_library", "bind"]

_CFLAGS = ["-std=c11", "-O2", "-fPIC", "-shared", "-ffp-contract=off"]

_lib_cache: Optional[ctypes.CDLL] = None


def find_compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def toolchain_available() -> bool:
    return find_compiler() is not None


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "repro-native")
    try:
        os.makedirs(path, exist_ok=True)
        return path
    except OSError:
        return tempfile.gettempdir()


def library_path() -> str:
    from repro.native._csrc import SOURCE
    tag = hashlib.sha256(
        (SOURCE + sys.platform).encode()).hexdigest()[:16]
    return os.path.join(_cache_dir(), f"repro_kernels_{tag}.so")


def build_library() -> str:
    """Compile the embedded C once; reuses the cached .so when the
    source hash matches."""
    path = library_path()
    if os.path.exists(path):
        return path
    cc = find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH (cc/gcc/clang)")
    from repro.native._csrc import SOURCE
    workdir = os.path.dirname(path)
    src = os.path.join(workdir, os.path.basename(path) + ".c")
    with open(src, "w") as fh:
        fh.write(SOURCE)
    tmp = path + f".tmp{os.getpid()}"
    proc = subprocess.run([cc, *_CFLAGS, "-o", tmp, src],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{cc} failed ({proc.returncode}): {proc.stderr.strip()}")
    os.replace(tmp, path)   # atomic under concurrent builders
    return path


def load_library() -> ctypes.CDLL:
    global _lib_cache
    if _lib_cache is None:
        _lib_cache = ctypes.CDLL(build_library())
    return _lib_cache


#: ctypes signature shorthand used by :data:`_SIGNATURES`.
_PTR = ctypes.c_void_p
_I64 = ctypes.c_longlong
_F64 = ctypes.c_double

#: symbol -> (restype, argtypes).  Declared once at bind time so the
#: hot wrappers can pass raw ``arr.ctypes.data`` integers — ctypes
#: converts them via the declared argtypes without a per-argument
#: Python wrapper object (the per-call marshalling cost is what the
#: wrappers here are optimising away; the kernels are sub-millisecond
#: and called hundreds of times per run).
_SIGNATURES = {
    "repro_pcg_fill": (None, (_PTR, _PTR, _I64)),
    "repro_uniform_count": (_I64, (_PTR, _I64, _PTR, _I64)),
    "repro_uniform_fill": (
        _I64, (_PTR, _PTR, _PTR, _PTR, _I64, _I64, _PTR, _PTR, _I64)),
    "repro_weighted_fill": (
        _I64, (_PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _I64, _I64,
               _I64, _PTR, _PTR, _I64)),
    "repro_segment_count": (_I64, (_PTR, _I64)),
    "repro_segment_fill": (_I64, (_PTR, _PTR, _I64, _I64, _PTR, _PTR)),
    "repro_node2vec_fill": (
        None, (_PTR, _PTR, _PTR, _I64, _PTR, _PTR, _I64, _PTR, _I64,
               _PTR, _F64, _F64, _F64, _I64, _I64, _PTR, _PTR, _PTR,
               _PTR, _PTR, _PTR, _PTR, _PTR)),
    "repro_grouping": (None, (_PTR, _I64, _PTR, _PTR, _PTR)),
    "repro_gather_i64": (None, (_PTR, _PTR, _PTR, _PTR, _I64, _PTR)),
    "repro_gather_f64": (None, (_PTR, _PTR, _PTR, _PTR, _I64, _PTR)),
    "repro_dedupe_rows": (_I64, (_PTR, _I64, _I64, _I64)),
}


def _sym(lib: ctypes.CDLL, symbol: str):
    f = getattr(lib, symbol)
    f.restype, f.argtypes = _SIGNATURES[symbol]
    return f


def bind(lib: ctypes.CDLL, name: str):
    """A Python callable for kernel ``name`` matching the kernels_py
    signature (arrays carry their own shapes; the wrapper forwards
    explicit lengths to C)."""
    if name == "pcg_fill":
        f = _sym(lib, "repro_pcg_fill")

        def pcg_fill(s, out):
            f(s.ctypes.data, out.ctypes.data, out.shape[0])
        return pcg_fill

    if name == "uniform_count":
        f = _sym(lib, "repro_uniform_count")

        def uniform_count(transits, degrees, null_v):
            return f(transits.ctypes.data, transits.shape[0],
                     degrees.ctypes.data, null_v)
        return uniform_count

    if name == "uniform_fill":
        f = _sym(lib, "repro_uniform_fill")

        def uniform_fill(indptr, indices, degrees, transits, m, r, out,
                         null_v):
            return f(indptr.ctypes.data, indices.ctypes.data,
                     degrees.ctypes.data, transits.ctypes.data,
                     transits.shape[0], m, r.ctypes.data,
                     out.ctypes.data, null_v)
        return uniform_fill

    if name == "weighted_fill":
        f = _sym(lib, "repro_weighted_fill")

        def weighted_fill(indptr, indices, degrees, cumsum, row_base,
                          row_total, transits, m, count, r, out, null_v):
            return f(indptr.ctypes.data, indices.ctypes.data,
                     degrees.ctypes.data, cumsum.ctypes.data,
                     row_base.ctypes.data, row_total.ctypes.data,
                     transits.ctypes.data, transits.shape[0], m, count,
                     r.ctypes.data, out.ctypes.data, null_v)
        return weighted_fill

    if name == "segment_count":
        f = _sym(lib, "repro_segment_count")

        def segment_count(offsets):
            return f(offsets.ctypes.data, offsets.shape[0] - 1)
        return segment_count

    if name == "segment_fill":
        f = _sym(lib, "repro_segment_fill")

        def segment_fill(values, offsets, m, r, out):
            return f(values.ctypes.data, offsets.ctypes.data,
                     offsets.shape[0] - 1, m, r.ctypes.data,
                     out.ctypes.data)
        return segment_fill

    if name == "node2vec_fill":
        f = _sym(lib, "repro_node2vec_fill")

        def node2vec_fill(indptr, indices, weights, is_weighted,
                          degrees, transits, prev, has_prev, row_max,
                          bias_env, p, inv_q, max_rounds, null_v, s,
                          out, pending, proposal, bias, envs, rbuf,
                          counters):
            f(indptr.ctypes.data, indices.ctypes.data,
              weights.ctypes.data, is_weighted, degrees.ctypes.data,
              transits.ctypes.data, transits.shape[0], prev.ctypes.data,
              has_prev, row_max.ctypes.data, bias_env, p, inv_q,
              max_rounds, null_v, s.ctypes.data, out.ctypes.data,
              pending.ctypes.data, proposal.ctypes.data,
              bias.ctypes.data, envs.ctypes.data, rbuf.ctypes.data,
              counters.ctypes.data)
        return node2vec_fill

    if name == "grouping":
        f = _sym(lib, "repro_grouping")

        def grouping(vals, hist, order, tmp):
            f(vals.ctypes.data, vals.shape[0], hist.ctypes.data,
              order.ctypes.data, tmp.ctypes.data)
        return grouping

    if name == "ragged_gather":
        fi = _sym(lib, "repro_gather_i64")
        ff = _sym(lib, "repro_gather_f64")

        def ragged_gather(values, starts, counts, offsets, out):
            fn = ff if values.dtype == np.float64 else fi
            fn(values.ctypes.data, starts.ctypes.data,
               counts.ctypes.data, offsets.ctypes.data,
               starts.shape[0], out.ctypes.data)
        return ragged_gather

    if name == "dedupe_rows":
        f = _sym(lib, "repro_dedupe_rows")

        def dedupe_rows(rows, null_v):
            return f(rows.ctypes.data, rows.shape[0], rows.shape[1],
                     null_v)
        return dedupe_rows

    raise KeyError(f"unknown kernel {name!r}")
