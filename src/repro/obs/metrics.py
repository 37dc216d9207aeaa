"""Process-global registry of labeled counters, gauges, and histograms.

Unlike spans (which are recorded only when tracing is enabled), metrics
are always on: every update is one lock acquire plus arithmetic (plus a
single bisection for histograms), cheap enough for the per-step /
per-chunk granularity the runtime uses.  The registry is rendered by
the OpenMetrics text exporter (:mod:`repro.obs.openmetrics`), which
backs the ``--stats`` / ``--stats-out`` CLI flags and the daemon's
``/metrics`` endpoint.

Every instrument name is a *family* that may carry labeled children::

    reg.counter("pool.chunk_errors")                          # unlabeled
    reg.counter("pool.chunk_errors",
                labels={"app": "DeepWalk", "backend": "numpy"})

Children of one family share a kind (asking for the same name with a
different kind raises ``TypeError``) and are grouped under the family in
snapshots and exports, so the same instrument can later carry
``tenant=`` / ``request=`` labels for a serving daemon with no schema
change.

Histograms are fixed log-bucketed (HDR-style): ~20 buckets per decade
from 100 ns to 10 ks, so any duration in that range lands in a bucket
within ~12% of its true value and p50/p90/p99 are available without
storing observations.  Exact count / total / min / max are kept
alongside.  Non-finite observations (NaN, +/-inf) are dropped and
counted separately rather than poisoning the sum.

Standard instrument names (see ``docs/OBSERVABILITY.md``):

==============================  ========== =============================
name                            kind        meaning
==============================  ========== =============================
``engine.runs``                 counter     engine ``run()`` calls
``engine.samples_produced``     counter     samples in finished batches
``engine.steps_run``            counter     sampling steps executed
``engine.stage_seconds``        histogram   per-stage wall seconds,
                                            labeled ``stage=`` (step /
                                            scheduling_index /
                                            individual_kernels /
                                            collective_kernels) and
                                            ``backend=``; every engine
                                            observes them through
                                            ``stepper.run_steps``
``runtime.chunks_inprocess``    counter     chunks run in the parent
``runtime.chunks_pooled``       counter     chunks run by the worker
                                            set: pool processes or
                                            chunk threads
``runtime.degraded_mode``       gauge       1 once the latest pooled run
                                            has retired its pool and
                                            finished in-process (else 0)
``runtime.backend_active``      gauge       resolved kernel backend id:
                                            0 numpy, 2 cnative; 1 retired
                                            (``BACKEND_IDS`` in
                                            ``repro.native.backend``)
``native.compile_failures``     counter     compiled kernels disabled
                                            after a runtime failure
                                            (that kernel falls back to
                                            numpy; once per kernel) or
                                            a failed C build (every
                                            kernel; once per process)
``rng.chunk_streams``           counter     chunk generators derived
``pool.chunks_dispatched``      counter     chunk messages sent to pipes
``pool.worker_crashes``         counter     worker deaths *detected*
                                            (pipe EOF, failed send,
                                            watchdog) — not exception
                                            constructions
``pool.chunk_errors``           counter     worker-side application
                                            exceptions in a chunk,
                                            labeled ``app=``/``backend=``
``pool.queue_depth``            gauge       undispatched chunks (last)
``pool.chunk_seconds``          histogram   chunk latency on the worker
                                            set (process or thread),
                                            labeled ``app=``/``backend=``
``shm.bytes_mapped``            counter     shared-memory bytes exported
``shm.segments_swept``          counter     orphaned segments of dead
                                            owners unlinked at startup
==============================  ========== =============================
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricFamily",
           "MetricsRegistry", "get_metrics", "reset_metrics",
           "label_key", "scalar_of", "BUCKET_BOUNDS"]


#: Shared log-spaced bucket upper bounds: 20 per decade over
#: [1e-7, 1e4) seconds — 100 ns resolution floor, ~2.8 h ceiling,
#: +Inf overflow bucket on top.  One module-level array so every
#: histogram shares it (bisection target, never mutated).
BUCKET_BOUNDS = np.power(
    10.0, np.arange(-7 * 20, 4 * 20 + 1) / 20.0)
BUCKET_BOUNDS.setflags(write=False)

_NUM_BUCKETS = len(BUCKET_BOUNDS) + 1  # + overflow (+Inf)

#: As Python floats: ``bisect_left`` here is ``searchsorted(.., "left")``.
_BOUNDS = tuple(BUCKET_BOUNDS.tolist())


def label_key(labels: Optional[Mapping[str, str]]) -> Tuple[Tuple[str, str], ...]:
    """Canonical hashable key for a labelset: sorted (k, v) pairs."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def label_string(key: Tuple[Tuple[str, str], ...]) -> str:
    """Render a label key as ``k="v",k2="v2"`` (snapshot series key)."""
    return ",".join(f'{k}="{v}"' for k, v in key)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """Last-written value (e.g. an instantaneous queue depth)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, v: float) -> None:
        with self._lock:
            self.value = float(v)


class Histogram:
    """Log-bucketed streaming histogram with exact count/sum/min/max.

    Observations land in fixed log-spaced buckets (:data:`BUCKET_BOUNDS`
    upper bounds, ~20 per decade, plus a +Inf overflow bucket), so
    :meth:`quantile` answers p50/p90/p99 within one bucket width (~12%
    relative error) without storing the stream.  Non-finite values are
    dropped and counted in ``dropped`` instead of corrupting the sum.
    """

    __slots__ = ("_lock", "count", "total", "min", "max", "dropped",
                 "_buckets")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.dropped = 0
        self._buckets = np.zeros(_NUM_BUCKETS, dtype=np.int64)

    def observe(self, v: float) -> None:
        v = float(v)
        if not math.isfinite(v):
            with self._lock:
                self.dropped += 1
            return
        idx = bisect.bisect_left(_BOUNDS, v)
        with self._lock:
            self.count += 1
            self.total += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v
            self._buckets[idx] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Upper bound of the bucket holding the q-quantile (clamped to
        the observed min/max); ``None`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile q must be in [0, 1], got {q}")
        with self._lock:
            count = self.count
            if not count:
                return None
            cum = np.cumsum(self._buckets)
            lo, hi = self.min, self.max
        rank = max(1, int(np.ceil(q * count)))
        idx = int(np.searchsorted(cum, rank, side="left"))
        if idx >= len(BUCKET_BOUNDS):
            return hi  # overflow bucket: the max is the best bound
        return float(min(max(BUCKET_BOUNDS[idx], lo), hi))

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, OpenMetrics style:
        every populated boundary plus the trailing +Inf bucket."""
        with self._lock:
            buckets = self._buckets.copy()
            count = self.count
        cum = np.cumsum(buckets)
        out: List[Tuple[float, int]] = []
        prev = 0
        for i, bound in enumerate(BUCKET_BOUNDS):
            c = int(cum[i])
            if c != prev:
                out.append((float(bound), c))
                prev = c
        out.append((float("inf"), count))
        return out

    def as_dict(self) -> Dict[str, Any]:
        """JSON-stable summary.  ``min``/``max``/percentiles are
        ``None`` (JSON ``null``) when empty — an empty histogram is
        distinguishable from one that observed 0.0.  ``buckets`` lists
        the populated cumulative ``[upper_bound, count]`` pairs with
        ``"+Inf"`` for the overflow bound."""
        with self._lock:
            count = self.count
            total = self.total
            lo, hi = self.min, self.max
            dropped = self.dropped
        if not count:
            return {"count": 0, "total": 0.0, "mean": None,
                    "min": None, "max": None,
                    "p50": None, "p90": None, "p99": None,
                    "dropped": dropped, "buckets": []}
        buckets = [["+Inf" if b == float("inf") else b, c]
                   for b, c in self.bucket_counts()]
        return {"count": count, "total": total, "mean": total / count,
                "min": lo, "max": hi,
                "p50": self.quantile(0.50),
                "p90": self.quantile(0.90),
                "p99": self.quantile(0.99),
                "dropped": dropped, "buckets": buckets}


Instrument = Union[Counter, Gauge, Histogram]

_KIND_NAMES = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


class MetricFamily:
    """One named instrument family: a kind plus its labeled children.

    The unlabeled child (empty labelset) is what pre-label callers get;
    it is created lazily like any other child.
    """

    __slots__ = ("name", "cls", "_lock", "_children")

    def __init__(self, name: str, cls) -> None:
        self.name = name
        self.cls = cls
        self._lock = threading.Lock()
        self._children: Dict[Tuple[Tuple[str, str], ...], Instrument] = {}

    @property
    def kind(self) -> str:
        return _KIND_NAMES[self.cls]

    def child(self, labels: Optional[Mapping[str, str]] = None) -> Instrument:
        key = label_key(labels)
        with self._lock:
            inst = self._children.get(key)
            if inst is None:
                inst = self.cls()
                self._children[key] = inst
            return inst

    def children(self) -> List[Tuple[Tuple[Tuple[str, str], ...], Instrument]]:
        """Sorted ``(label_key, instrument)`` pairs (unlabeled first)."""
        with self._lock:
            items = list(self._children.items())
        return sorted(items, key=lambda kv: kv[0])

    def snapshot_value(self) -> Any:
        """Plain value for an unlabeled-only family; a ``{"series":
        {label_string: value}}`` wrapper once labeled children exist."""
        items = self.children()
        def value_of(inst):
            return inst.as_dict() if isinstance(inst, Histogram) \
                else inst.value
        if len(items) == 1 and items[0][0] == ():
            return value_of(items[0][1])
        return {"series": {label_string(key): value_of(inst)
                           for key, inst in items}}


class MetricsRegistry:
    """Name -> family map with get-or-create accessors.

    Asking for an existing name with a different kind raises
    ``TypeError`` — instrument kinds are part of the metric's contract.
    The ``labels=`` keyword selects (creating on first use) the child
    for that labelset; omitting it selects the family's unlabeled child,
    which keeps every pre-label call site working unchanged.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def _family(self, name: str, cls) -> MetricFamily:
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = MetricFamily(name, cls)
                self._families[name] = fam
            elif fam.cls is not cls:
                raise TypeError(
                    f"metric {name!r} is a {fam.cls.__name__}, "
                    f"not a {cls.__name__}")
            return fam

    def counter(self, name: str,
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        return self._family(name, Counter).child(labels)

    def gauge(self, name: str,
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        return self._family(name, Gauge).child(labels)

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, str]] = None) -> Histogram:
        return self._family(name, Histogram).child(labels)

    def collect(self, prefix: str = "") -> List[MetricFamily]:
        """Sorted families (for exporters); ``prefix`` narrows to one
        instrument namespace."""
        with self._lock:
            fams = list(self._families.items())
        return [fam for name, fam in sorted(fams)
                if name.startswith(prefix)]

    def snapshot(self, prefix: str = "") -> Dict[str, Any]:
        """Flat ``{name: value}`` dict; JSON-serialisable.  Histograms
        expand to a summary sub-dict; families with labeled children
        expand to ``{"series": {'k="v"': value, ...}}`` keyed by the
        canonical label string.  ``prefix`` narrows to one instrument
        namespace (e.g. ``"pool."``)."""
        return {fam.name: fam.snapshot_value()
                for fam in self.collect(prefix)}

    def reset(self) -> None:
        with self._lock:
            self._families.clear()


def scalar_of(value: Any) -> float:
    """Collapse one :meth:`MetricsRegistry.snapshot` value to a float:
    histogram summaries give their observation count, labeled families
    sum across their series.  The delta-assertion helper the chaos
    suite and resilience tests share."""
    if isinstance(value, dict):
        if set(value) == {"series"}:
            return sum(scalar_of(v) for v in value["series"].values())
        return float(value.get("count", 0))
    return float(value)


_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def reset_metrics() -> None:
    """Clear every instrument (tests and fresh benchmark sections)."""
    _REGISTRY.reset()
