"""The transit-parallel execution engine — the paper's contribution.

- :mod:`repro.core.transit_map` — the transit→samples map and the
  *scheduling index* (Section 6.1.2), built with (modeled) parallel
  radix sort + scan exactly as NextDoor builds it with CUB.
- :mod:`repro.core.scheduling` — partitioning transits into the three
  kernel classes of Table 2 (grid / thread block / sub-warp) and
  producing the kernel launches the GPU model evaluates.
- :mod:`repro.core.collective` — transit-parallel construction of
  combined neighborhoods for collective sampling (Section 6.2).
- :mod:`repro.core.unique` — unique-neighbor dedup (Section 6.3).
- :mod:`repro.core.stepper` — ``run_steps``, the one step loop every
  engine runs; it samples and reports each step's shape, engines price
  it.
- :mod:`repro.core.engine` — :class:`NextDoorEngine`: NextDoor's
  charges over that loop, ``do_sampling`` / ``get_final_samples``
  (Section 6.5), multi-GPU distribution (Section 6.4).
- :mod:`repro.core.large_graph` — sampling graphs that do not fit in
  GPU memory (Section 8.4).
"""

from repro.core.engine import NextDoorEngine, SamplingResult

__all__ = ["NextDoorEngine", "SamplingResult"]
