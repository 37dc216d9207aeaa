"""KnightKing: the CPU random-walk engine baseline (Yang et al., SOSP'19).

KnightKing selects each walk step by rejection sampling against an
envelope of the (possibly dynamic) edge bias — the exact technique
NextDoor's node2vec uses — executed by CPU worker threads that each
advance a partition of the walkers.  "Its API restricts expressing only
random walks, hence, we use the system as a baseline only for random
walks" (Section 8.2); this engine enforces the same restriction.

Functional sampling reuses the applications' vectorised kernels (the
distributions are identical); the cost model charges each walker-step
to the 16-core CPU: one random (cache-missing) adjacency access plus
the rejection arithmetic, and for node2vec the neighbor-membership
probes.  For graphs exceeding GPU memory (Section 8.4) KnightKing has
no transfer cost at all, which is why it beats NextDoor on cheap walks
there.
"""

from __future__ import annotations

from repro.api.app import SamplingApp
from repro.api.types import SamplingType
from repro.baselines.cpu_engine import CpuEngine
from repro.core.stepper import StepRecord
from repro.gpu.cpu_model import CpuDevice, CpuTask

__all__ = ["KnightKingEngine"]


class KnightKingEngine(CpuEngine):
    """CPU rejection-sampling walk engine; random walks only."""

    engine_name = "KnightKing"

    def _charge_step(self, cpu: CpuDevice, graph, batch,
                     record: StepRecord) -> None:
        """One walker super-step."""
        info, step = record.info, record.step
        rounds = max(1.0, info.avg_compute_cycles / 10.0)
        probes = info.extra_global_reads_per_vertex
        # Per walker-step: dequeue the walker message, fetch the
        # adjacency (a random access; short lists fit one cache line),
        # run the rejection rounds (binary-search draws hit the
        # just-fetched row: arithmetic, not extra misses), enqueue the
        # continuation.
        cpu.run([CpuTask(ops=24.0 + 12.0 * rounds
                         + 4.0 * info.cacheable_reads_per_vertex,
                         random_accesses=1.0 + probes,
                         count=record.tmap.num_pairs)],
                name=f"walk_step_{step}")
        # BSP super-step barrier across the worker threads (~1us).
        cpu.run([CpuTask(ops=self.spec.clock_ghz * 1e3, count=1)],
                name=f"barrier_{step}", parallel=False)
        if record.unique_width:
            # Walker rows wider than one (multi-root walks) dedup in
            # the per-walker state dict.
            cpu.run([CpuTask(ops=12.0, random_accesses=1.0,
                             count=batch.num_samples
                             * record.unique_width)],
                    name=f"walker_unique_{step}", parallel=False)

    def _check_supported(self, app: SamplingApp) -> None:
        """KnightKing expresses random walks only: individual transit
        sampling adding one vertex per sample per step."""
        if app.sampling_type() is not SamplingType.INDIVIDUAL:
            raise ValueError(
                f"KnightKing cannot express {app.name}: collective "
                "transit sampling is outside its random-walk API")
        if app.sample_size(0) != 1:
            raise ValueError(
                f"KnightKing cannot express {app.name}: it samples "
                f"{app.sample_size(0)} vertices per step, not 1")
