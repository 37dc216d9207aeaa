"""Deterministic fault injection for the sampling runtime.

Every failure path the runtime must survive — a lost or wedged
worker, shared-memory failures, in-chunk exceptions, interrupted runs —
is exercisable on demand through a *fault plan*: a small spec string
parsed once (the CLI's ``--fault-plan``, the daemon's ``fault_plan``
test hook) and carried on ``engine.fault_plan``.  Plans are
deterministic by construction: a fault fires when its trigger matches,
never from wall-clock or randomness, so a chaos run is exactly
reproducible and the bitwise-identity invariant can be asserted under
every injected failure (``repro verify --suite chaos``).

Grammar (see ``docs/RESILIENCE.md``)::

    plan  := spec ("," spec)*
    spec  := name [":" arg [":" times]]
    arg   := CHUNK | STEP "." CHUNK      (faults matched per chunk)
    times := positive int | "*"          (default 1)

``times`` bounds how often a spec fires **per plan instance**.  Each
engine run works on a fresh copy of the engine's plan; each pool worker
parses its own copy from the run broadcast, so a ``times`` budget is
per worker process.

Fault names:

========================  =============================================
worker-side (fire in pool worker processes: numpy backend only —
a compiled backend runs chunk threads and has none)
----------------------------------------------------------------------
``kill-before-chunk:A``   ``os._exit`` on receiving chunk A, before
                          sampling it (the parent sees pipe EOF)
``wedge-chunk:A``         sleep past any watchdog instead of running
                          chunk A (progress timeout must fire)
``chunk-error:A``         raise :class:`FaultInjected` inside chunk A
                          (exercises the worker-error retry path)
----------------------------------------------------------------------
parent-side (fire in the dispatching process)
----------------------------------------------------------------------
``shm-export-fail``       graph export raises ``OSError`` in
                          ``begin_run`` (pool never attaches)
``broadcast-fail``        run broadcast raises ``WorkerCrash``
``unpicklable-app``       the app is treated as unpicklable (silent
                          in-process execution, not a pool failure)
                          — these three fire only where a pool is
                          attached, i.e. not under a compiled backend
``interrupt-step:S``      raise :class:`FaultInjected` at the start of
                          step S (deterministic stand-in for ctrl-C)
========================  =============================================
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

__all__ = ["FaultInjected", "FaultSpec", "FaultPlan", "FAULT_NAMES",
           "POOL_FAULTS"]

#: Faults that need the process pool: the worker-side kinds and the
#: three that fail the pool's attachment in ``begin_run``.  Under a
#: compiled backend ``--workers N`` is N threads of one process — there
#: is no worker to kill and nothing to export or broadcast — so these
#: never fire there (the CLI says so once).
POOL_FAULTS = (
    "kill-before-chunk",
    "wedge-chunk",
    "chunk-error",
    "shm-export-fail",
    "broadcast-fail",
    "unpicklable-app",
)

#: Every recognised fault name (parse rejects anything else so typos
#: fail loudly instead of silently injecting nothing).
FAULT_NAMES = POOL_FAULTS + (
    "interrupt-step",
)

#: Names whose ``arg`` is required (they trigger on a chunk or step).
_ARG_REQUIRED = frozenset(FAULT_NAMES) - {
    "shm-export-fail", "broadcast-fail", "unpicklable-app"}


class FaultInjected(RuntimeError):
    """An exception raised by an injected fault (never by real code)."""


class FaultSpec:
    """One parsed fault: name, optional trigger arg, firing budget."""

    __slots__ = ("name", "arg", "remaining")

    def __init__(self, name: str, arg: Optional[Tuple[int, ...]],
                 times: Optional[int]) -> None:
        self.name = name
        #: () = always matches; (C,) = chunk C of any step;
        #: (S, C) = chunk C of step S only.
        self.arg = arg if arg is not None else ()
        #: None = unbounded (``*``); else fires this many times.
        self.remaining = times

    def matches(self, value: Tuple[int, ...]) -> bool:
        if not self.arg:
            return True
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
    firing budget, consuming one firing.  The raw ``spec`` string rides
    along so the parent can ship the plan to pool workers verbatim
    (each side keeps its own budgets).
    """

    def __init__(self, specs: List[FaultSpec], spec: str) -> None:
        self.specs = specs
        self.spec = spec

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
                                 "fields (name[:arg[:times]])")
            name = parts[0]
            if name not in FAULT_NAMES:
                raise ValueError(
                    f"unknown fault {name!r}; choose from "
                    f"{', '.join(FAULT_NAMES)}")
            arg: Optional[Tuple[int, ...]] = None
            if len(parts) >= 2:
                arg = cls._parse_arg(raw, parts[1])
            elif name in _ARG_REQUIRED:
                raise ValueError(f"fault {name!r} needs an arg "
                                 f"({raw!r}; e.g. {name}:3 or {name}:0.3)")
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
        for spec in self.specs:
            if spec.name == name and spec.fire(point):
                return True
        return False
