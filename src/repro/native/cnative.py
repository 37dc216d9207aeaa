"""Build + ctypes loading of the embedded C kernels.

The shared library is compiled once per (source, platform, flags) hash
into a cache directory; :func:`load_library` declares every kernel's ctypes
signature and memoises the result per process — a failed build
included, so a broken toolchain costs one compiler run and one
report, not one per kernel.  The hooks of
:class:`~repro.native.backend.CNativeBackend` call the ``repro_*``
symbols on the returned library directly.

``-ffp-contract=off`` matters: FMA contraction of ``base + r * total``
would round differently from numpy and break bitwise parity.

``-O1``: the kernels are memory-bound, and it cuts the cold build a third
(docs/PERF.md).  A preloaded ASan runtime builds ASan + UBSan, a preloaded
TSan runtime builds TSan, each hashed apart.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Optional, Union

__all__ = ["find_compiler", "library_path", "build_library",
           "load_library", "sanitized"]

#: The loaded library; ``False`` once the one build attempt has failed.
_lib_cache: Union[ctypes.CDLL, bool, None] = None


def sanitized() -> bool:
    """Whether this process runs under the AddressSanitizer runtime."""
    return hasattr(ctypes.CDLL(None), "__asan_init")


def _sanitizer_flags() -> list:
    """Instrumentation matching a preloaded sanitizer runtime, if any."""
    if sanitized():
        return ["-g", "-fno-omit-frame-pointer",
                "-fsanitize=address,undefined",
                "-fno-sanitize-recover=undefined"]
    if hasattr(ctypes.CDLL(None), "__tsan_init"):
        return ["-g", "-fno-omit-frame-pointer", "-fsanitize=thread"]
    return []


_CFLAGS = ["-std=c11", "-O1", "-fPIC", "-shared", "-ffp-contract=off",
           *_sanitizer_flags()]


def find_compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


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
    key = SOURCE + sys.platform + " ".join(_CFLAGS)
    tag = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join(_cache_dir(), f"repro_kernels_{tag}.so")


def build_library() -> str:
    """Compile the embedded C once; reuses the cached .so whose name
    carries the same source / platform / flags hash."""
    path = library_path()
    if os.path.exists(path):
        return path
    cc = find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH (cc/gcc/clang)")
    from repro.native._csrc import SOURCE
    # Per-process names for the source and the library alike: a
    # concurrent first build must not truncate the file this one
    # compiles.
    tmp = path + f".tmp{os.getpid()}"
    src = tmp + ".c"
    with open(src, "w") as fh:
        fh.write(SOURCE)
    try:
        proc = subprocess.run([cc, *_CFLAGS, "-o", tmp, src],
                              capture_output=True, text=True)
    finally:
        os.remove(src)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{cc} failed ({proc.returncode}): {proc.stderr.strip()}")
    os.replace(tmp, path)   # atomic under concurrent builders
    return path


#: ctypes signature shorthand used by :data:`_SIGNATURES`.
_PTR = ctypes.c_void_p
_I64 = ctypes.c_longlong
_F64 = ctypes.c_double

#: symbol -> (restype, argtypes), declared once at load time: hooks
#: pass plain integer addresses.  Reading one is not free — each
#: ``arr.ctypes.data`` builds a numpy object (~2 us) — so a graph's are
#: read once and cached with it (``CSRGraph.addresses``), and a hook
#: reads each of its per-call arrays' once.
_SIGNATURES = {
    "repro_uniform_count": (_I64, (_PTR, _I64, _PTR, _I64, _PTR, _I64)),
    "repro_uniform_fill": (
        _I64, (_PTR, _PTR, _PTR, _PTR, _I64, _I64, _PTR, _PTR, _PTR, _I64)),
    "repro_weighted_fill": (
        _I64, (_PTR, _PTR, _PTR, _I64, _I64, _I64, _PTR, _PTR, _PTR, _I64)),
    "repro_node2vec_round": (
        _I64, (_PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _F64, _F64, _F64,
               _I64, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _I64, _I64)),
    "repro_gather": (None, (_PTR, _PTR, _PTR, _PTR, _I64, _I64, _PTR)),
    "repro_dedupe_rows": (_I64, (_PTR, _I64, _I64, _I64)),
    "repro_edge_mask": (
        _I64, (_PTR, _PTR, _PTR, _I64, _PTR, _PTR, _I64, _I64, _I64,
               _I64, _PTR)),
    "repro_edge_emit": (None, (_PTR, _PTR, _I64, _I64, _I64, _PTR, _PTR)),
    "repro_two_level_pick": (
        None, (_PTR, _PTR, _PTR, _PTR, _PTR, _I64, _I64, _PTR, _PTR,
               _PTR, _PTR, _PTR)),
}


def load_library() -> Optional[ctypes.CDLL]:
    """The compiled kernels with their signatures declared.

    One build attempt per process: the call that makes it raises on
    failure (``RuntimeError`` from the compiler, ``OSError`` from the
    loader, ``AttributeError`` from a library that lacks a kernel);
    every later call returns ``None`` without running the compiler
    again, so one broken toolchain is reported once.
    """
    global _lib_cache
    if _lib_cache is None:
        _lib_cache = False
        lib = ctypes.CDLL(build_library())
        for symbol, (restype, argtypes) in _SIGNATURES.items():
            func = getattr(lib, symbol)
            func.restype, func.argtypes = restype, argtypes
        _lib_cache = lib
    return _lib_cache or None
