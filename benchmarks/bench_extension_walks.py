"""Extension walks (ours): RWR and MHRW through the same harness.

Not a paper experiment — evidence for the Section 6.6 claim that the
API is general: two walks the paper never implemented (random walk with
restart; Metropolis-Hastings) run unchanged through every engine, and
transit-parallelism's advantages carry over.

Asserted shape: both walks are *uniform* (no weight-prefix searches
for transit grouping to cache), so at this scale NextDoor sits within
~25% of SP — the scheduling index buys little when every read is a
single uniform draw — while both engines dominate the CPU baseline by
an order of magnitude.  KnightKing expresses both, as random walks.
"""

from repro.api.apps import MHRW, RWR
from repro.baselines import KnightKingEngine, SampleParallelEngine
from repro.bench import format_table, print_experiment, save_results
from repro.core.engine import NextDoorEngine
from repro.graph import datasets

GRAPHS = ("ppi", "livej")


def _speedups():
    data = {}
    for app_name, factory in (
            ("RWR", lambda: RWR(restart_prob=0.15, walk_length=100)),
            ("MHRW", lambda: MHRW(walk_length=100))):
        data[app_name] = {}
        for graph_name in GRAPHS:
            graph = datasets.load(graph_name, seed=0)
            ns = min(graph.num_vertices, 20000)
            nd = NextDoorEngine().run(factory(), graph,
                                      num_samples=ns, seed=1)
            sp = nd.priced_as(SampleParallelEngine())
            kk = nd.priced_as(KnightKingEngine())
            data[app_name][graph_name] = {
                "SP": sp.seconds / nd.seconds,
                "KK": kk.seconds / nd.seconds,
            }
    return data


def test_extension_walks(benchmark, record_table):
    data = benchmark.pedantic(_speedups, rounds=1, iterations=1)
    rows = []
    for app, per in data.items():
        for baseline in ("SP", "KK"):
            rows.append([f"{app} vs {baseline}"]
                        + [f"{per[g][baseline]:.2f}x" for g in GRAPHS])
    table = format_table(["Comparison"] + list(GRAPHS), rows)
    print_experiment("Extension walks: RWR and MHRW (ours)", table)
    save_results("extension_walks", data)

    for app, per in data.items():
        for g in GRAPHS:
            # Uniform walks: near-parity with SP (the index buys
            # little without cacheable per-draw reads)...
            assert per[g]["SP"] > 0.75, (app, g)
            # ...and an order of magnitude over the CPU engine.
            assert per[g]["KK"] > 8.0, (app, g)
    record_table(rwr_sp=data["RWR"]["livej"]["SP"],
                 mhrw_sp=data["MHRW"]["livej"]["SP"])
