"""Transit→samples map and scheduling index (Section 6.1.2).

"Creating a scheduling index involves three stages.  First, NextDoor
creates a transit-to-sample map ...  Then, NextDoor partitions all
transit vertices into three sets based on the number of samples
associated with each transit vertex using parallel scan operations.
Finally, the scheduling index of a transit vertex is set to the index
of the transit vertex in its set."

Functionally this module groups the step's flattened (sample, transit)
pairs by transit with a sort; for the performance model it charges the
cost of the parallel radix sort + scans NextDoor runs on the GPU (the
"scheduling index" share of Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.api.types import NULL_VERTEX
from repro.gpu.device import Device
from repro.gpu.warp import WarpStats, coalesced_segments

__all__ = ["TransitMap", "StepShape", "build_transit_map",
           "charge_index_build", "charge_map_readback"]


class StepShape(NamedTuple):
    """What a step's pairs cost: a transit map without its K-sized
    pair arrays — all a ``_charge_*`` reads of one, and all a
    :class:`~repro.core.stepper.StepRecord` keeps of one."""

    num_pairs: int
    num_total_pairs: int
    unique_transits: np.ndarray  # (U,)
    counts: np.ndarray           # (U,) samples per transit

    @property
    def num_transits(self) -> int:
        return int(self.unique_transits.size)


@dataclass
class TransitMap:
    """All of one step's (sample, transit) pairs grouped by transit.

    ``rows[k]`` is pair ``k``'s flat slot ``s * T + c`` in the ``(S, T)``
    transits, and its row of the ``(S * T, m)`` step output;
    ``unique_transits[i]`` owns the ``counts[i]`` pairs in
    ``slice(offsets[i], offsets[i + 1])`` of the sorted arrays.
    """

    rows: np.ndarray          # (K,) pair -> flat slot, transit-sorted
    transit_vals: np.ndarray  # (K,) pair -> transit vertex, sorted
    unique_transits: np.ndarray  # (U,)
    counts: np.ndarray           # (U,) samples per transit
    offsets: np.ndarray          # (U + 1,)
    num_total_pairs: int
    width: int                # T, transits per sample

    @property
    def sample_ids(self) -> np.ndarray:  # pair -> sample
        return self.rows // self.width

    @property
    def cols(self) -> np.ndarray:  # pair -> column in its sample's row
        return self.rows % self.width

    @property
    def num_pairs(self) -> int:
        return int(self.transit_vals.size)

    @property
    def num_transits(self) -> int:
        return int(self.unique_transits.size)

    def shape(self) -> StepShape:
        return StepShape(self.num_pairs, self.num_total_pairs,
                         self.unique_transits, self.counts)

    def pairs_of(self, i: int) -> slice:
        """Sorted-pair slice owned by the ``i``-th unique transit."""
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))


def _live_pairs(transits) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """The live transits' flat slots (``None`` when all are) and values."""
    flat = np.asarray(transits).ravel()
    live = flat != NULL_VERTEX
    if np.count_nonzero(live) == live.size:
        return None, flat
    slots = np.flatnonzero(live)
    return slots, flat[slots]


def build_transit_map(transits: np.ndarray, graph=None) -> TransitMap:
    """Group a step's pairs by transit vertex (the functional half).

    The grouping is one ``np.sort`` of packed keys ``(vals - min) << b
    | pair`` (``int64`` as formed: ``int32`` ids would wrap), ``b`` the
    bit length of ``K - 1``: the low bits make every key distinct, so
    any sort of them is ``argsort(vals, kind="stable")`` and the high
    bits are the sorted transits.  Ids too far apart to pack fall back
    to that argsort.  The permutation is ``rows`` itself when every
    transit is live, else it gathers the live slots.
    ``unique_transits`` / ``counts`` / ``offsets`` are then read off the
    run boundaries of the sorted transits.  Every stage is O(K log K) in
    the step's pairs — nothing is sized by, or scans, the vertex-id
    range.  ``graph`` is accepted for callers that pass one and is not
    read.
    """
    slots, vals = _live_pairs(transits)
    num_total_pairs, width = int(np.size(transits)), np.shape(transits)[1]
    if vals.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return TransitMap(empty, empty.copy(), empty.copy(), empty.copy(),
                          np.zeros(1, dtype=np.int64),
                          num_total_pairs=num_total_pairs, width=width)
    lo = vals.min()
    bits = (vals.size - 1).bit_length()
    if (int(vals.max()) - int(lo)).bit_length() + bits <= 63:
        keys = np.subtract(vals, lo, dtype=np.int64)
        keys <<= bits
        keys |= np.arange(vals.size, dtype=np.int64)
        keys.sort()
        order = keys & ((1 << bits) - 1)
        keys >>= bits   # in place: a temporary here varied the heap's peak
        svals = keys.astype(vals.dtype)
        svals += lo
    else:
        order = np.argsort(vals, kind="stable")
        svals = vals[order]
    # A new group starts wherever the sorted transit changes.
    starts = np.flatnonzero(svals[1:] != svals[:-1]) + 1
    offsets = np.concatenate(([0], starts, [svals.size]))
    return TransitMap(order if slots is None else slots[order], svals,
                      svals[offsets[:-1]], np.diff(offsets), offsets,
                      num_total_pairs=num_total_pairs, width=width)


#: Radix-sort passes over 32-bit keys at 16 bits per pass (CUB's
#: wide-digit configuration for short keys).
_RADIX_PASSES = 2


def charge_index_build(device: Device, num_pairs: int) -> None:
    """Charge the GPU cost of building the scheduling index.

    Modeled as CUB's radix sort (two 16-bit counting+scatter passes)
    plus the partition/scan passes: each pass streams the keys coalesced and
    scatters them (scatters are the expensive, uncoalesced part —
    which is why the paper sees up to 40% of time spent here for
    random walks, whose sampling work per pair is tiny).
    """
    if num_pairs <= 0:
        return
    kernel = device.new_kernel("build_scheduling_index")
    warps = int(np.ceil(num_pairs / device.spec.warp_size))
    warp = WarpStats(device.spec)
    for _ in range(_RADIX_PASSES):
        warp.global_load(32)                  # stream keys in
        # Scatter to digit buckets: CUB ranks within the block first,
        # so bucket writes land in long mostly-coalesced runs.
        warp.global_store(32, segments=8)
        warp.compute(12.0)                    # digit extract + rank
    # Partition into the three kernel sets + exclusive scans.
    warp.global_load(32).global_store(32).compute(8.0)
    blocks = max(1, int(np.ceil(warps / 8)))
    kernel.add_group(blocks, min(8, warps), warp)
    device.launch(kernel, phase="scheduling_index")


def charge_map_readback(device: Device, num_pairs: int) -> None:
    """Charge the inverse-map write that puts sampled vertices back in
    sample order (NextDoor writes output via the scheduling index, then
    the final gather restores per-sample layout)."""
    if num_pairs <= 0:
        return
    kernel = device.new_kernel("invert_scheduling_index")
    warps = int(np.ceil(num_pairs / device.spec.warp_size))
    warp = WarpStats(device.spec)
    warp.global_load(32)
    warp.global_store(32, segments=32)  # permutation scatter
    warp.compute(4.0)
    kernel.add_group(max(1, int(np.ceil(warps / 8))), min(8, warps), warp)
    device.launch(kernel, phase="scheduling_index")
