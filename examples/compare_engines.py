"""Head-to-head: NextDoor against every baseline the paper evaluates.

A miniature of Figures 7 and 9: one table of modeled execution times
per (application, engine) on the LiveJournal stand-in, with the
speedups NextDoor's transit-parallelism buys.  Each app is sampled
once and that run is priced as every engine.

    python examples/compare_engines.py
"""

from repro.baselines import (
    FrontierEngine,
    KnightKingEngine,
    MessagePassingEngine,
    ReferenceSamplerEngine,
    SampleParallelEngine,
    VanillaTPEngine,
)
from repro.bench import run_engines
from repro.core.engine import NextDoorEngine

APPS = ["DeepWalk", "node2vec", "k-hop", "FastGCN"]
ENGINES = [
    ("NextDoor", NextDoorEngine()),
    ("SP", SampleParallelEngine()),
    ("TP", VanillaTPEngine()),
    ("KnightKing", KnightKingEngine()),
    ("GNN sampler", ReferenceSamplerEngine()),
    ("Gunrock-style", FrontierEngine()),
    ("Tigr-style", MessagePassingEngine()),
]


def main() -> None:
    # One run per app (two where the CPU engines draw other samples),
    # priced as every engine.
    engines = [engine for _, engine in ENGINES]
    results = {app: run_engines(engines, app, "livej", seed=0)
               for app in APPS}
    print(f"{'engine':14s} " + " ".join(f"{a:>12s}" for a in APPS))
    for i, (engine_name, _) in enumerate(ENGINES):
        cells = []
        for app_name in APPS:
            r, nd = results[app_name][i], results[app_name][0]
            if r is None:
                cells.append(f"{'n/a':>12s}")
            elif i == 0:
                cells.append(f"{r.seconds * 1e3:9.2f} ms")
            else:
                cells.append(f"{r.seconds / nd.seconds:10.1f}x")
        print(f"{engine_name:14s} " + " ".join(cells))
    print("\n(NextDoor row: modeled time; other rows: how much slower "
          "than NextDoor)")


if __name__ == "__main__":
    main()
