"""Deterministic fault injection for the sampling runtime.

The two failure paths a run must take cleanly — an exception inside a
chunk and an interrupted run — are exercisable on demand through a
*fault plan*: a small spec string parsed once (the CLI's
``--fault-plan``, the daemon's ``fault_plan`` test hook) and carried on
``engine.fault_plan``.  Plans are deterministic by construction: a
fault fires when its trigger matches, never from wall-clock or
randomness, so a chaos run is exactly reproducible, and running the
same request again without the plan must give the fault-free batch bit
for bit (``repro verify --suite chaos``).

Grammar (see ``docs/RESILIENCE.md``)::

    plan  := spec ("," spec)*
    spec  := name ":" arg [":" times]
    arg   := N | STEP "." CHUNK          (N: a chunk, or a step)
    times := positive int | "*"          (default 1)

``times`` bounds how often a spec fires **per plan instance**; each
engine run works on a fresh copy of the engine's plan.

Fault names:

========================  =============================================
``chunk-error:A``         raise :class:`FaultInjected` inside chunk A,
                          on whichever thread runs it; the run raises
                          it once every started chunk has returned
``interrupt-step:S``      raise :class:`FaultInjected` at the start of
                          step S (deterministic stand-in for ctrl-C)
========================  =============================================
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple, Union

__all__ = ["FaultInjected", "FaultSpec", "FaultPlan", "FAULT_NAMES"]

#: Every recognised fault name (parse rejects anything else so typos
#: fail loudly instead of silently injecting nothing).
FAULT_NAMES = ("chunk-error", "interrupt-step")


class FaultInjected(RuntimeError):
    """An exception raised by an injected fault (never by real code)."""


class FaultSpec:
    """One parsed fault: name, trigger arg, firing budget."""

    __slots__ = ("name", "arg", "remaining")

    def __init__(self, name: str, arg: Tuple[int, ...],
                 times: Optional[int]) -> None:
        self.name = name
        #: (N,) = chunk N of any step (``chunk-error``) or step N
        #: (``interrupt-step``); (S, C) = chunk C of step S only.
        self.arg = arg
        #: None = unbounded (``*``); else fires this many times.
        self.remaining = times

    def matches(self, value: Tuple[int, ...]) -> bool:
        if len(self.arg) == 1:
            # Match on the trailing component (chunk id / step id).
            return bool(value) and value[-1] == self.arg[0]
        return tuple(value) == self.arg

    def fire(self, value: Tuple[int, ...]) -> bool:
        """True (and consume one firing) if this spec triggers now."""
        if self.remaining == 0 or not self.matches(value):
            return False
        if self.remaining is not None:
            self.remaining -= 1
        return True


class FaultPlan:
    """A parsed, stateful fault plan.

    ``should(name, *value)`` is the single query point: it returns
    ``True`` when a spec with that name matches ``value`` and still has
    firing budget, consuming one firing; chunk threads may ask at
    once.  The raw ``spec`` string rides along so each run can parse a
    fresh copy with full budgets.
    """

    def __init__(self, specs: List[FaultSpec], spec: str) -> None:
        self.specs = specs
        self.spec = spec
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, text: Optional[str]) -> Optional["FaultPlan"]:
        """Parse a plan string; ``None``/blank parses to ``None``.

        Raises ``ValueError`` with a readable message on bad input.
        """
        if text is None or not text.strip():
            return None
        specs: List[FaultSpec] = []
        for raw in text.split(","):
            raw = raw.strip()
            if not raw:
                continue
            parts = raw.split(":")
            if len(parts) > 3:
                raise ValueError(f"fault spec {raw!r} has too many "
                                 "fields (name:arg[:times])")
            name = parts[0]
            if name not in FAULT_NAMES:
                raise ValueError(
                    f"unknown fault {name!r}; choose from "
                    f"{', '.join(FAULT_NAMES)}")
            if len(parts) < 2:
                raise ValueError(f"fault {name!r} needs an arg "
                                 f"({raw!r}; e.g. {name}:3 or {name}:0.3)")
            arg = cls._parse_arg(raw, parts[1])
            times: Optional[int] = 1
            if len(parts) == 3:
                if parts[2] == "*":
                    times = None
                else:
                    try:
                        times = int(parts[2])
                    except ValueError:
                        raise ValueError(
                            f"bad times field in {raw!r}: {parts[2]!r} "
                            "(positive int or *)") from None
                    if times < 1:
                        raise ValueError(
                            f"times must be >= 1 in {raw!r}")
            specs.append(FaultSpec(name, arg, times))
        if not specs:
            return None
        return cls(specs, text)

    @staticmethod
    def _parse_arg(raw: str, field: str) -> Tuple[int, ...]:
        try:
            if "." in field:
                step_s, chunk_s = field.split(".", 1)
                return (int(step_s), int(chunk_s))
            return (int(field),)
        except ValueError:
            raise ValueError(
                f"bad arg in fault spec {raw!r}: {field!r} "
                "(expected CHUNK or STEP.CHUNK)") from None

    def should(self, name: str, *value: Union[int, None]) -> bool:
        """Does fault ``name`` fire for this trigger point?"""
        point = tuple(int(v) for v in value if v is not None)
        with self._lock:
            return any(spec.name == name and spec.fire(point)
                       for spec in self.specs)
