"""TP: vanilla transit-parallelism without load balancing (Section 5.2).

"...we compare against vanilla transit-parallel approach, which assigns
each transit and sample pair to ``m_i`` consecutive threads."

TP builds the transit map (and pays for it) and caches adjacency lists
in shared memory like NextDoor, but schedules naively: every transit
gets exactly one thread block.  Hot transits (associated with many
samples) serialize inside their single block while cold transits strand
nearly-idle blocks — the load-imbalance failure NextDoor's three-kernel
scheme fixes.  Stores also scatter, since there is no sub-warp packing.
"""

from __future__ import annotations

import numpy as np

from repro.api.types import StepInfo
from repro.core.collective import (
    charge_collective_selection,
    charge_edge_recording,
)
from repro.core.engine import NextDoorEngine
from repro.core.scheduling import KernelPlanConfig, charge_sampling_kernels
from repro.gpu.device import Device

__all__ = ["VanillaTPEngine"]

#: NextDoor's planner with load balancing disabled *is* vanilla TP.
_VANILLA_CONFIG = KernelPlanConfig(enable_load_balancing=False,
                                   enable_caching=True,
                                   enable_subwarp_sharing=False)


class VanillaTPEngine(NextDoorEngine):
    """Transit-parallel execution without Section 6's scheduling.

    The index build (TP still needs the transit→samples map — the "map
    inversion" the paper notes takes significant time for TP) and the
    individual kernels are NextDoor's own charges under
    ``_VANILLA_CONFIG``; only the collective construction differs."""

    engine_name = "TP"

    def __init__(self, spec=None, workers=None, chunk_size=None) -> None:
        kwargs = {"config": _VANILLA_CONFIG, "workers": workers,
                  "chunk_size": chunk_size}
        if spec is not None:
            kwargs["spec"] = spec
        super().__init__(**kwargs)

    def _charge_collective(self, device: Device, tmap, degrees: np.ndarray,
                           m: int, info: StepInfo, num_samples: int,
                           has_edges: bool) -> None:
        """Combined-neighborhood construction without load balancing:
        one block per transit streams its adjacency to every sample,
        hot transits serializing inside their single block.  The copy
        volume per pair is the pair-weighted mean transit degree (hub
        transits appear in many pairs)."""
        if degrees.size and tmap.counts.sum() > 0:
            copy_m = max(1, int(np.ceil(
                float((tmap.counts * degrees).sum())
                / float(tmap.counts.sum()))))
        else:
            copy_m = 1
        charge_sampling_kernels(device, tmap, degrees, copy_m,
                                StepInfo(avg_compute_cycles=4.0),
                                self.config, name_prefix="combined_")
        charge_collective_selection(device, num_samples, m, info)
        if has_edges:
            charge_edge_recording(device, tmap.num_pairs * max(m, 1))
