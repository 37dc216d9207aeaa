"""The whole system in one pass.

dataset -> degree check -> sampling on three engines ->
modeled-performance report.  A tour of what the reproduction builds,
runnable in about a second.

    python examples/full_pipeline.py
"""

from repro import NextDoorEngine, datasets
from repro.api.apps import DeepWalk, KHop
from repro.baselines import KnightKingEngine, SampleParallelEngine
from repro.graph.stats import degree_stats


def main() -> None:
    # 1. Dataset stand-in + shape validation ---------------------------
    graph = datasets.load("ppi", seed=0, weighted=True)
    stats = degree_stats(graph)
    print(f"[1] {graph}")
    print(f"    degrees: mean={stats.mean:.1f} p99={stats.p99:.0f} "
          f"max={stats.maximum} gini={stats.gini:.2f} "
          f"(hubby: transit-parallelism has something to share)")

    # 2. Sampling on three engines -------------------------------------
    print("\n[2] DeepWalk x 4000 walkers on three engines")
    engines = [("NextDoor", NextDoorEngine()),
               ("SP", SampleParallelEngine()),
               ("KnightKing", KnightKingEngine())]
    base = None
    for name, engine in engines:
        r = engine.run(DeepWalk(walk_length=50), graph,
                       num_samples=4000, seed=0)
        base = base or r.seconds
        print(f"    {name:10s} {r.seconds * 1e3:8.2f} ms  "
              f"({r.seconds / base:5.1f}x NextDoor)")

    # 3. Modeled performance profile ------------------------------------
    print("\n[3] Where NextDoor's modeled time goes (k-hop, 8192 roots)")
    r = NextDoorEngine().run(KHop((25, 10)), graph, num_samples=8192,
                             seed=0)
    for phase, seconds in sorted(r.breakdown.items()):
        print(f"    {phase:18s} {seconds * 1e6:9.1f} us "
              f"({seconds / r.seconds:5.1%})")
    sampling = r.metrics_by_phase["sampling"]
    print(f"    store efficiency   {sampling.counters.store_efficiency:.0%}; "
          f"SM activity {sampling.multiprocessor_activity:.0%}")


if __name__ == "__main__":
    main()
