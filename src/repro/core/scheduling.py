"""Load-balanced kernel planning (Sections 6.1.1-6.1.2, Table 2).

Transits are partitioned by the *total number of neighbors to sample*
(``samples_of_transit * m_i``) into three kernel classes:

=============  =======================  ==================  ==================
Kernel         Neighbors to sample      Caching             Scheduling
=============  =======================  ==================  ==================
Grid           > 1024                   shared memory       transit -> blocks
Thread block   32..1024                 shared memory       transit -> block
Sub-warp       < 32                     registers+shuffle   transit -> sub-warp
=============  =======================  ==================  ==================

The planner charges the modeled device for each class's launches.  The
same planner, with :class:`KernelPlanConfig` knobs flipped, also powers
the vanilla-TP baseline (no load balancing: every transit gets exactly
one thread block) and the ablation benchmarks (caching off, sub-warp
sharing off).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.types import StepInfo
from repro.core.transit_map import TransitMap
from repro.gpu.access import expected_segments_random_picks_vec
from repro.gpu.device import Device
from repro.gpu.warp import WarpStats, coalesced_segments

__all__ = ["KernelPlanConfig", "charge_sampling_kernels", "classify_transits"]

#: Thread-count boundaries of Table 2 (the :class:`KernelPlanConfig`
#: defaults).
SUBWARP_LIMIT = 32
BLOCK_LIMIT = 1024


@dataclass(frozen=True)
class KernelPlanConfig:
    """Knobs separating NextDoor from its ablated variants."""

    #: Table 2's three kernel classes; False = vanilla TP (one thread
    #: block per transit regardless of its sample count).
    enable_load_balancing: bool = True
    #: Shared-memory / register caching of transit adjacency lists;
    #: False = every neighbor read goes to global memory.
    enable_caching: bool = True
    #: Pack multiple samples into one warp when m < 32; False = one
    #: sample per warp (idle lanes, uncoalesced stores).
    enable_subwarp_sharing: bool = True
    #: Kernel-assignment boundaries (Table 2): transits needing fewer
    #: than ``subwarp_limit`` neighbors run in sub-warps, more than
    #: ``block_limit`` span multiple blocks.  Tunable — they change only
    #: the modeled kernel charges, never the samples.
    subwarp_limit: int = SUBWARP_LIMIT
    block_limit: int = BLOCK_LIMIT


def classify_transits(counts: np.ndarray, m: int,
                      subwarp_limit: int = SUBWARP_LIMIT,
                      block_limit: int = BLOCK_LIMIT) -> dict:
    """Partition transit indices into the three kernel classes by
    total neighbors to sample (Table 2)."""
    needed = counts * max(m, 1)
    return {
        "subwarp": np.nonzero(needed < subwarp_limit)[0],
        "block": np.nonzero((needed >= subwarp_limit)
                            & (needed <= block_limit))[0],
        "grid": np.nonzero(needed > block_limit)[0],
    }


def _next_pow2(x: int) -> int:
    return 1 << max(0, int(np.ceil(np.log2(max(1, x)))))


def _neighbor_read(warp: WarpStats, spec, reads: float, cached: str) -> None:
    """Charge ``reads`` per-thread neighbor fetches for a full warp."""
    if cached == "register":
        warp.shuffle(reads)
    elif cached == "shared":
        warp.shared_load(reads)
    else:  # uncached: one scattered global transaction per fetch
        warp.global_load(reads * 32, segments=reads * 32)


def _user_function(warp: WarpStats, info: StepInfo,
                   cached: str = "global") -> None:
    """Charge one lock-step execution of ``next`` across the warp.

    ``cached`` is the kernel's caching mode for the transit's own rows:
    cacheable per-draw reads (weight-prefix binary searches) are served
    from it, while cross-list probes always scatter to global memory.
    """
    warp.compute(info.avg_compute_cycles)
    if info.divergence_fraction > 0:
        warp.branch(divergent=True, extra_paths=1,
                    path_cycles=info.divergence_cycles
                    * info.divergence_fraction)
    else:
        warp.branch()
    if info.cacheable_reads_per_vertex > 0:
        _neighbor_read(warp, warp.spec, info.cacheable_reads_per_vertex,
                       cached)
    if info.extra_global_reads_per_vertex > 0:
        # Data-dependent probes (node2vec): scattered reads, one
        # transaction per probing thread per word.
        words = info.extra_global_reads_per_vertex * 32
        warp.global_load(words, segments=words)


def charge_sampling_kernels(
    device: Device,
    tmap: TransitMap,
    degrees: np.ndarray,
    m: int,
    info: StepInfo,
    config: KernelPlanConfig = KernelPlanConfig(),
    phase: str = "sampling",
    name_prefix: str = "",
    weighted: bool = False,
) -> None:
    """Charge the device for one step's transit-parallel sampling.

    ``degrees[i]`` is the degree of ``tmap.unique_transits[i]``.
    ``weighted`` doubles adjacency traffic: biased samplers read edge
    weights (the prefix-sum array) alongside neighbor ids.  Functional
    sampling has already happened (numpy); this prices the equivalent
    GPU launches.
    """
    spec = device.spec
    counts = tmap.counts
    if counts.size == 0 or m == 0:
        return
    m = max(m, 1)

    if not config.enable_load_balancing:
        _charge_vanilla_tp(device, counts, degrees, m, info, config, phase,
                           name_prefix, weighted)
        return

    classes = classify_transits(counts, m, config.subwarp_limit,
                                config.block_limit)
    block_limit = config.block_limit
    smem_words = spec.shared_mem_per_block // 8
    row_words = 2.0 if weighted else 1.0  # neighbor ids (+ weights)
    # The three class kernels have no mutual dependencies and launch on
    # concurrent streams: one logical launch, span = slowest class.
    kernel = device.new_kernel(name_prefix + "transit_sampling_kernels")

    # ------------------------------------------------------ sub-warp --
    idx = classes["subwarp"]
    if idx.size:
        sw = _next_pow2(m) if config.enable_subwarp_sharing else spec.warp_size
        needed = counts[idx] * m
        if config.enable_subwarp_sharing:
            # Each pair occupies a pow2-sized sub-warp; warps pack them.
            threads = int(counts[idx].sum()) * sw
        else:
            # One sample per warp: 32 lanes reserved per pair.
            threads = int(counts[idx].sum()) * spec.warp_size
        warps = max(1, int(np.ceil(threads / spec.warp_size)))
        warp = WarpStats(spec)
        # Every read of one transit's adjacency lands in the *same*
        # list, so a transit costs the expected number of distinct
        # 32-byte segments its picks touch — the exact closed form,
        # not a bound — no matter how many of its samples read it.
        # (Plus ~one transaction for the transit's indptr entry,
        # amortised 4-per-segment.)
        if config.enable_caching:
            load_tx = row_words * expected_segments_random_picks_vec(
                degrees[idx], needed) + 0.5
        else:
            load_tx = row_words * needed.astype(np.float64)  # scattered
        warp.global_load(float(load_tx.sum()) * 4 / warps,
                         segments=float(load_tx.sum()) / warps)
        cached = "register" if config.enable_caching else "global"
        _neighbor_read(warp, spec, info.neighbor_reads_per_vertex, cached)
        _user_function(warp, info, cached)
        # One coalesced store of the warp's 32 produced vertices (the
        # scheduling-index ordering makes every store contiguous).
        if config.enable_subwarp_sharing:
            warp.global_store(spec.warp_size)
        else:
            # One sample per warp: only m lanes active, a partial store.
            warp.global_store(m, segments=max(1, coalesced_segments(m)))
        blocks = max(1, int(np.ceil(warps / 8)))
        kernel.add_group(blocks, min(8, warps), warp)

    # -------------------------------------------------- thread block --
    idx = classes["block"]
    if idx.size:
        needed = counts[idx] * m
        warps_per_block = np.ceil(needed / spec.warp_size).astype(np.int64)
        for wpb in np.unique(warps_per_block):
            members = idx[warps_per_block == wpb]
            avg_deg = float(degrees[members].mean())
            # Cache only what the block will actually consume.
            cache_words = row_words * min(avg_deg, smem_words,
                                          float(wpb) * spec.warp_size * 4.0)
            fits = avg_deg * row_words <= smem_words
            warp = WarpStats(spec)
            # Cooperative coalesced load of the adjacency into shared
            # memory, amortised across the block's warps.
            warp.global_load(cache_words / wpb)
            warp.shared_store(coalesced_segments(cache_words) / wpb)
            cached = "shared" if (config.enable_caching and fits) else "global"
            _neighbor_read(warp, spec, info.neighbor_reads_per_vertex, cached)
            _user_function(warp, info, cached)
            warp.global_store(spec.warp_size)
            smem_bytes = int(min(cache_words * 8, spec.shared_mem_per_block)) \
                if config.enable_caching else 0
            kernel.add_group(int(members.size), int(wpb), warp,
                             shared_mem_bytes=smem_bytes)

    # ----------------------------------------------------------- grid --
    idx = classes["grid"]
    if idx.size:
        needed = counts[idx] * m
        blocks_per_transit = np.ceil(needed / block_limit).astype(np.int64)
        total_blocks = int(blocks_per_transit.sum())
        avg_deg = float(degrees[idx].mean())
        wpb = max(1, block_limit // spec.warp_size)
        cache_words = row_words * min(avg_deg, smem_words,
                                      float(block_limit) * 4.0)
        fits = avg_deg * row_words <= smem_words
        warp = WarpStats(spec)
        warp.global_load(cache_words / wpb)
        warp.shared_store(coalesced_segments(cache_words) / wpb)
        cached = "shared" if (config.enable_caching and fits) else "global"
        _neighbor_read(warp, spec, info.neighbor_reads_per_vertex, cached)
        _user_function(warp, info, cached)
        warp.global_store(spec.warp_size)
        smem_bytes = int(min(cache_words * 8, spec.shared_mem_per_block)) \
            if config.enable_caching else 0
        kernel.add_group(total_blocks, wpb, warp,
                         shared_mem_bytes=smem_bytes)

    if not kernel.is_empty:
        device.launch(kernel, phase=phase)


def _charge_vanilla_tp(
    device: Device,
    counts: np.ndarray,
    degrees: np.ndarray,
    m: int,
    info: StepInfo,
    config: KernelPlanConfig,
    phase: str,
    name_prefix: str,
    weighted: bool = False,
) -> None:
    """Vanilla TP (Section 5.2 without Section 6): every transit gets
    one thread block; hot transits serialize inside their block, cold
    transits strand mostly-idle blocks.  Stores scatter because there
    is no sub-warp organisation."""
    spec = device.spec
    block_limit = config.block_limit
    needed = counts * m
    threads = np.minimum(needed, block_limit)
    warps_per_block = np.maximum(1, np.ceil(threads / spec.warp_size)
                                 ).astype(np.int64)
    rounds = np.maximum(1, np.ceil(needed / block_limit)).astype(np.int64)
    smem_words = spec.shared_mem_per_block // 8
    row_words = 2.0 if weighted else 1.0
    kernel = device.new_kernel(name_prefix + "vanilla_tp_kernel")
    # Bucket by (warps_per_block, rounds-bucket) to keep groups few.
    round_bucket = np.minimum(rounds, 1 << np.minimum(
        30, np.ceil(np.log2(rounds)).astype(np.int64)))
    key = warps_per_block * (1 << 31) + round_bucket
    for k in np.unique(key):
        members = np.nonzero(key == k)[0]
        wpb = int(warps_per_block[members[0]])
        avg_rounds = float(rounds[members].mean())
        avg_deg = float(degrees[members].mean())
        cache_words = row_words * min(avg_deg, smem_words)
        fits = avg_deg * row_words <= smem_words
        warp = WarpStats(spec)
        warp.global_load(cache_words / wpb)
        warp.shared_store(coalesced_segments(cache_words) / wpb)
        cached = "shared" if (config.enable_caching and fits) else "global"
        _neighbor_read(warp, spec, info.neighbor_reads_per_vertex, cached)
        _user_function(warp, info, cached)
        # No sub-warp packing: each thread writes its own sample's slot,
        # scattering across sample rows (m consecutive slots per sample
        # coalesce, but never below the ideal 4-words-per-segment).
        warp.global_store(spec.warp_size,
                          segments=max(coalesced_segments(spec.warp_size),
                                       spec.warp_size / max(1, m)))
        smem_bytes = int(min(avg_deg * 8, spec.shared_mem_per_block)) \
            if config.enable_caching else 0
        kernel.add_group(int(members.size), wpb, warp,
                         shared_mem_bytes=smem_bytes,
                         serial_rounds=avg_rounds)
    device.launch(kernel, phase=phase)
