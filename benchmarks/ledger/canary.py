"""The host's speed, read between the timed passes.

The reference host is a 2-vCPU guest of a shared machine.  For spells of
twenty seconds to ten minutes at a time, every program on it runs 25 to
40 % slower: ``engine.run``, the daemon's closed loop and a bare
``numpy`` sort alike, with no steal time and no load to show for it.  A
16 s run sits wholly inside such a spell or wholly outside, so no
statistic of its own passes can tell; ten runs of one commit then read
10 000, 14 000, 10 500, ... samples/s and a bound of 0.25 rejects at
random.

The canary is fixed work that no change to the program can touch: a
sort of one million seeded doubles (8 MB, past L2).  It is read between
the timed passes, and a pass that took ``t`` while the canary took ``k``
times its quiet-host duration is reported as ``t / k``: what the pass
would have taken on the quiet host.  Over 36 windows of 16 s through
quiet and slow spells, the daemon's samples/s spread 17 % (interquartile
range over median, 9 400 to 14 300) as measured and 4 % so corrected.
The numbers as measured stay in the result file beside the corrected
ones (``detail.as_measured``, ``detail.host_slowdown``).
"""

from __future__ import annotations

import time
from statistics import median
from typing import List, Tuple

import numpy as np

#: Doubles sorted by one reading.
SIZE = 1_000_000

#: One reading on the reference host when it is quiet, in milliseconds.
#: Only the ratio of a reading to this constant is used, so on another
#: host the corrected numbers are in reference-host seconds.
QUIET_MS = 8.0

#: Readings this close to a timed interval, before and after, count
#: towards its slowdown.  One reading is noisy (quartiles 4 % either
#: side of the local median, 1 in 20 beyond 20 %), so several are pooled.
WINDOW_S = 1.5


class Canary:
    def __init__(self) -> None:
        self._source = np.random.default_rng(0).random(SIZE)
        self._buffer = np.empty_like(self._source)
        #: (``perf_counter`` at mid-reading, milliseconds taken)
        self.readings: List[Tuple[float, float]] = []

    def _sort(self) -> None:
        np.copyto(self._buffer, self._source)
        self._buffer.sort()

    def read(self, times: int = 1) -> None:
        # One sort untimed: the timed pass before it has emptied the
        # caches, and a cold reading is 16 % slower than a warm one.
        self._sort()
        for _ in range(times):
            start = time.perf_counter()
            self._sort()
            end = time.perf_counter()
            self.readings.append(((start + end) / 2, (end - start) * 1e3))

    def slowdown(self, start: float, end: float) -> float:
        """How many times slower than the quiet reference host the host
        ran between ``start`` and ``end`` (``perf_counter`` readings):
        the median reading from :data:`WINDOW_S` before to as long
        after, over :data:`QUIET_MS`."""
        near = [ms for at, ms in self.readings
                if start - WINDOW_S <= at <= end + WINDOW_S]
        if not near:
            raise ValueError("no canary reading near the timed interval")
        return median(near) / QUIET_MS

    def overall(self) -> float:
        """Median slowdown over every reading of the run."""
        return median(ms for _, ms in self.readings) / QUIET_MS
