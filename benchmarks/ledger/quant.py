"""Percentiles, the open-loop arrival schedule and latency accounting.

Pure functions with no dependency on the program under test, so
``test_ledger.py`` can pin their arithmetic.
"""

from __future__ import annotations

import math
import random
from statistics import median  # noqa: F401  (re-exported: quant.median)
from typing import Dict, List, Optional, Sequence

#: Percentiles the ledger may report beyond the median.
LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


#: Other tenants of a shared host only ever *add* time, in episodes of
#: tens of seconds: ten DeepWalk runs that take 0.65 s on a quiet host
#: read 0.65, 0.65, 0.74, 0.84, 0.91, ... through one.  The quartile on
#: the fast side moves a third as far as the median does, without the
#: minimum's appetite for one lucky run, so it is what a run reports.
QUIET = 25.0


def quiet_time(times: Sequence[float]) -> float:
    """Lower quartile of repeated timings of the same work."""
    return percentile(times, QUIET)


def quiet_rate(rates: Sequence[float]) -> float:
    """Upper quartile of repeated rates of the same work."""
    return percentile(rates, 100.0 - QUIET)


def supported_tail(n: int) -> Optional[float]:
    """The highest ladder percentile with at least :data:`MIN_BEYOND`
    of ``n`` samples beyond it, or None when even p75 has fewer."""
    best = None
    for p in LADDER:
        if round(n * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            best = p
    return best


def tail(values: Sequence[float]) -> Dict[str, float]:
    """``{"p": percentile used, "value": its value, "n": samples}``.

    With too few samples for any ladder percentile the tail falls back
    to p75 and says so through ``"supported": False`` — the reader sees
    the sample count and judges it, the number is never invented."""
    supported = supported_tail(len(values))
    p = supported or LADDER[0]
    return {"p": p, "value": percentile(values, p), "n": len(values),
            "supported": supported is not None}


def poisson_schedule(seed: int, rate_per_s: float, count: int) -> List[float]:
    """Due times (seconds from phase start) of ``count`` Poisson
    arrivals at ``rate_per_s``; the same seed gives the same list."""
    rng = random.Random(seed)
    now, due = 0.0, []
    for _ in range(count):
        now += rng.expovariate(rate_per_s)
        due.append(now)
    return due


def account(due: float, sent: float, done: float) -> Dict[str, float]:
    """Open-loop accounting for one request, in milliseconds.

    Latency runs from the instant the request was *due*, so the wait a
    stalled sender imposes on later requests is charged to them;
    ``sender_late`` is how late the generator itself ran."""
    return {"latency_ms": (done - due) * 1e3,
            "sender_late_ms": max(0.0, sent - due) * 1e3}
