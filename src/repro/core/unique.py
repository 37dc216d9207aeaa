"""Unique-neighbor dedup (Section 6.3).

"After sampling at each step NextDoor removes duplicated sampled
vertices by first sorting them with a parallel radix sort, and then
getting distinct vertices using parallel scan.  If sampled neighbors
fit in the shared memory then NextDoor performs this computation by
assigning one sample to one thread block, otherwise one kernel is
called for each sample.  After this process if the sample size is less
than the stepSize, then NextDoor performs sampling using a
sample-parallel approach."

Functionally: within each sample's step row, later duplicates of a
vertex become NULL, then one sample-parallel top-up pass re-samples the
emptied slots and keeps any draws that are new.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.api.types import NULL_VERTEX
from repro.gpu.device import Device
from repro.gpu.warp import WarpStats, coalesced_segments

__all__ = ["dedupe_rows", "dedupe_and_topup", "charge_dedup"]


def dedupe_rows(rows: np.ndarray) -> Tuple[np.ndarray, int]:
    """NULL-out duplicate vertices within each row, keeping first
    occurrences in place.  Returns (deduped rows, number of dups)."""
    rows = np.asarray(rows)
    from repro.api.apps._kernels import _backend
    native = _backend().dedupe_rows(rows)
    if native is not None:
        return native
    out = rows.copy()
    order = np.argsort(rows, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(rows, order, axis=1)
    dup_sorted = np.zeros_like(rows, dtype=bool)
    dup_sorted[:, 1:] = ((sorted_vals[:, 1:] == sorted_vals[:, :-1])
                         & (sorted_vals[:, 1:] != NULL_VERTEX))
    # Scatter the duplicate flags back to original positions.
    dup = np.zeros_like(dup_sorted)
    np.put_along_axis(dup, order, dup_sorted, axis=1)
    num_dups = int(dup.sum())
    out[dup] = NULL_VERTEX
    return out, num_dups


def dedupe_and_topup(app, graph, transits: np.ndarray,
                     new_vertices: np.ndarray, step: int,
                     rng: np.random.Generator
                     ) -> Tuple[np.ndarray, int, int]:
    """The functional half of the Section 6.3 unique pass, shared by
    every engine: dedup each row, then one top-up pass redrawing the
    emptied slots from their transits and keeping draws that are new.

    Returns ``(deduped rows, which rows held a duplicate, which rows
    were topped up)``, the last two as per-row masks, so the caller can
    price the work of any row slice under its own execution model.
    """
    from repro.api.apps._kernels import uniform_neighbors

    deduped, num_dups = dedupe_rows(new_vertices)
    if num_dups == 0:
        none = np.zeros(deduped.shape[0], dtype=bool)
        return deduped, none, none
    dups = (deduped != new_vertices).any(axis=1)
    topups = ((deduped == NULL_VERTEX).any(axis=1)
              & (new_vertices != NULL_VERTEX).any(axis=1))
    m = max(app.sample_size(step), 1)
    rows_with_holes = np.nonzero(topups)[0]
    if rows_with_holes.size:
        sub = deduped[rows_with_holes]
        holes = (sub == NULL_VERTEX) & (new_vertices[rows_with_holes]
                                        != NULL_VERTEX)
        # np.nonzero enumerates holes row-major — the same (row, then
        # hole) order the sequential top-up visited, so one batched
        # draw consumes the identical rng stream.
        rs, cs = np.nonzero(holes)
        if rs.size:
            hole_transits = transits[rows_with_holes[rs], cs // m]
            draws = uniform_neighbors(graph, hole_transits, 1, rng)[:, 0]
            # Accept a draw iff it is non-NULL, absent from the row's
            # surviving values, and the first draw of that value for
            # its row — exactly the sequential present-set rule.
            # Membership is tested on composite (row, value) keys so
            # one isin/unique covers all rows.
            stride = np.int64(graph.num_vertices) + 2
            live_r, live_c = np.nonzero(sub != NULL_VERTEX)
            existing_keys = live_r * stride + sub[live_r, live_c] + 1
            draw_keys = rs * stride + draws + 1
            is_first = np.zeros(draw_keys.size, dtype=bool)
            is_first[np.unique(draw_keys, return_index=True)[1]] = True
            accept = ((draws != NULL_VERTEX) & is_first
                      & ~np.isin(draw_keys, existing_keys))
            deduped[rows_with_holes[rs[accept]], cs[accept]] = \
                draws[accept]
    return deduped, dups, topups


def charge_dedup(device: Device, num_samples: int, row_width: int,
                 phase: str = "sampling") -> None:
    """Charge the per-sample block-local radix sort + scan."""
    spec = device.spec
    if num_samples == 0 or row_width <= 1:
        return
    fits_shared = row_width * 8 <= spec.shared_mem_per_block
    warps_per_block = max(1, min(spec.max_warps_per_block,
                                 int(np.ceil(row_width / spec.warp_size))))
    warp = WarpStats(spec)
    warp.global_load(row_width / warps_per_block)
    if fits_shared:
        # 4-pass block-local radix sort in shared memory + scan.
        warp.shared_load(4 * coalesced_segments(row_width) / warps_per_block)
        warp.shared_store(4 * coalesced_segments(row_width) / warps_per_block)
        warp.compute(16.0 * row_width / (warps_per_block * spec.warp_size))
    else:
        # Device-wide sort per sample: global traffic dominates.
        warp.global_load(4 * row_width / warps_per_block,
                         segments=4 * row_width / warps_per_block)
        warp.global_store(4 * row_width / warps_per_block)
        warp.compute(24.0 * row_width / (warps_per_block * spec.warp_size))
    warp.global_store(row_width / warps_per_block)
    kernel = device.new_kernel("unique_dedup")
    kernel.add_group(num_samples, warps_per_block, warp,
                     shared_mem_bytes=min(row_width * 8,
                                          spec.shared_mem_per_block)
                     if fits_shared else 0)
    device.launch(kernel, phase=phase)
