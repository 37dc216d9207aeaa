"""Compiled hot-path backend for the per-step sampling kernels.

See :mod:`repro.native.backend` for the interface and the parity
contract, :mod:`repro.native._csrc` for the kernels (the one compiled
source, which consumes the doubles its hooks draw from numpy and draws
none itself) and their draw-order contract, :mod:`repro.native.cnative`
for the build, and docs/PERF.md ("Compiled backend") for usage.
"""

from repro.native.backend import (
    BACKEND_ENV,
    BACKEND_IDS,
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    CNativeBackend,
    KernelBackend,
    NumpyBackend,
    active_backend,
    active_backend_name,
    available_backends,
    backend_scope,
    resolve_backend_name,
    set_backend,
)

__all__ = [
    "BACKEND_ENV",
    "BACKEND_IDS",
    "BACKEND_NAMES",
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
