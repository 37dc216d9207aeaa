"""The knob set the autotuner searches.

A :class:`TuneConfig` bundles the host-side parameters of a run that
move its measured wall-clock time: the kernel backend, the RNG-plan
chunk size and the worker-pool in-flight cap.  Chunk size excepted,
every knob is bitwise-invisible in the produced samples, so a tuned
configuration can be applied to production runs without re-validating
outputs.  (The kernel-assignment thresholds of Table 2 move only
*modeled* time; they live in
:class:`repro.core.scheduling.KernelPlanConfig`.)

The config is a frozen dataclass: the tuning database stores it as a
plain dict (:meth:`TuneConfig.to_dict`) and engines consume it via
``NextDoorEngine(tune=...)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["TuneConfig", "DEFAULT_TUNE"]


@dataclass(frozen=True)
class TuneConfig:
    """One point in the autotuner's search space.

    ``None`` means "leave the runtime default in place".
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

    def __post_init__(self) -> None:
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ValueError(
                f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.inflight is not None and self.inflight < 1:
            raise ValueError(
                f"inflight must be >= 1, got {self.inflight}")
        if self.backend is not None:
            from repro.native.backend import BACKEND_NAMES
            if self.backend not in BACKEND_NAMES:
                raise ValueError(
                    f"unknown backend {self.backend!r}; choose from "
                    f"{', '.join(BACKEND_NAMES)}")

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
        ``backend=cnative chunk_size=1024 inflight=4`` — only the
        non-default knobs; ``default`` when there are none."""
        parts = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value}")
        return " ".join(parts) if parts else "default"


#: The all-defaults config (what an untuned run uses).
DEFAULT_TUNE = TuneConfig()
