"""The knob set the autotuner searches.

A :class:`TuneConfig` bundles every performance-only parameter of a
run: kernel-assignment thresholds (the grid / thread-block / sub-warp
boundaries of Table 2), the RNG-plan chunk size, the worker-pool
in-flight cap, the kernel backend, and the locality-aware CSR
relabeling order.  None of these change *which* vertices are sampled —
chunk size excepted, every knob is bitwise-invisible in the produced
samples, and relabeled runs hand back original vertex ids — so a tuned
configuration can be applied to production runs without re-validating
outputs.

The config is a frozen dataclass: the tuning database stores it as a
plain dict (:meth:`TuneConfig.to_dict`) and engines consume it via
``NextDoorEngine(tune=...)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.scheduling import (
    BLOCK_LIMIT,
    SUBWARP_LIMIT,
    KernelPlanConfig,
)

__all__ = ["TuneConfig", "DEFAULT_TUNE"]

#: Knobs whose values feed the modeled kernel plan rather than the
#: host execution (searched against the model objective).
_PLAN_FIELDS = ("subwarp_limit", "block_limit")


@dataclass(frozen=True)
class TuneConfig:
    """One point in the autotuner's search space.

    ``None`` means "leave the runtime default in place" for the knobs
    that have an ambient default (backend / chunk size / in-flight
    cap / relabeling); the kernel thresholds always carry concrete
    values because the planner needs them unconditionally.
    """

    #: Kernel backend (``numpy`` / ``cnative``) or None to keep the
    #: session's resolved backend.
    backend: Optional[str] = None
    #: RNG-plan chunk size in transit pairs (None = runtime default).
    #: The one knob that changes sampled values — like a seed change.
    chunk_size: Optional[int] = None
    #: Worker-pool in-flight chunk cap per worker (None = pool default;
    #: irrelevant for in-process runs).
    inflight: Optional[int] = None
    #: Pairs-per-transit boundary between sub-warp and thread-block
    #: kernels (Table 2's first threshold).
    subwarp_limit: int = SUBWARP_LIMIT
    #: Pairs-per-transit boundary between thread-block and grid
    #: kernels (Table 2's second threshold).
    block_limit: int = BLOCK_LIMIT
    #: Locality-aware CSR relabeling order applied at graph load
    #: (``"degree"``) or None for the graph's natural vertex order.
    relabel: Optional[str] = None

    def __post_init__(self) -> None:
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ValueError(
                f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.inflight is not None and self.inflight < 1:
            raise ValueError(
                f"inflight must be >= 1, got {self.inflight}")
        if self.subwarp_limit < 1:
            raise ValueError(
                f"subwarp_limit must be >= 1, got {self.subwarp_limit}")
        if self.block_limit < self.subwarp_limit:
            raise ValueError(
                f"block_limit ({self.block_limit}) must be >= "
                f"subwarp_limit ({self.subwarp_limit})")
        if self.backend is not None:
            from repro.native.backend import BACKEND_NAMES
            if self.backend not in BACKEND_NAMES:
                raise ValueError(
                    f"unknown backend {self.backend!r}; choose from "
                    f"{', '.join(BACKEND_NAMES)}")
        if self.relabel is not None:
            from repro.graph.relabel import RELABEL_ORDERS
            if self.relabel not in RELABEL_ORDERS:
                raise ValueError(
                    f"unknown relabel order {self.relabel!r}; choose "
                    f"from {', '.join(RELABEL_ORDERS)}")

    # -- engine integration -------------------------------------------

    def apply_to_plan(self, plan: KernelPlanConfig) -> KernelPlanConfig:
        """The engine's kernel-plan config with this config's
        thresholds substituted (all other plan fields preserved)."""
        return dataclasses.replace(
            plan, subwarp_limit=self.subwarp_limit,
            block_limit=self.block_limit)

    @property
    def is_default(self) -> bool:
        """Whether every knob is at its runtime default."""
        return self == TuneConfig()

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-ready dict (the tuning database's storage form)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TuneConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected so a
        stale database from a newer version fails loudly."""
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ValueError(
                f"unknown TuneConfig field(s): {', '.join(unknown)}")
        return cls(**data)

    def describe(self) -> str:
        """Compact human-readable form, e.g.
        ``backend=cnative chunk_size=1024 relabel=degree`` — only the
        non-default knobs; ``default`` when there are none."""
        parts = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value}")
        return " ".join(parts) if parts else "default"


#: The all-defaults config (what an untuned run uses).
DEFAULT_TUNE = TuneConfig()
