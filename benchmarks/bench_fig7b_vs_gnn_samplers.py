"""Figure 7b: NextDoor vs. the existing GNNs' own samplers.

"NextDoor provides an order of magnitude speedup over the
implementations of existing GNNs."  The comparators are the reference
CPU samplers of GraphSAGE (k-hop), GraphSAINT (MultiRW), FastGCN,
LADIES, MVS and ClusterGCN, modeled by
:class:`~repro.baselines.ReferenceSamplerEngine`.

Reproduced claim: >= 10x on every cell, with the bulk samplers (k-hop,
layer-style) reaching orders of magnitude.
"""

from repro.bench import (
    GRAPHS_IN_MEMORY,
    format_table,
    print_experiment,
    run_engines,
    save_results,
)
from repro.baselines import ReferenceSamplerEngine
from repro.core.engine import NextDoorEngine

APPS = ["k-hop", "MultiRW", "FastGCN", "LADIES", "MVS", "ClusterGCN"]


def _speedups():
    nd = NextDoorEngine()
    ref = ReferenceSamplerEngine()
    data = {}
    for app in APPS:
        data[app] = {}
        for graph in GRAPHS_IN_MEMORY:
            nd_r, ref_r = run_engines([nd, ref], app, graph, seed=1)
            data[app][graph] = ref_r.seconds / nd_r.seconds
    return data


def test_fig7b_vs_gnn_samplers(benchmark, record_table):
    data = benchmark.pedantic(_speedups, rounds=1, iterations=1)
    rows = [[app] + [f"{data[app][g]:.0f}x" for g in GRAPHS_IN_MEMORY]
            for app in APPS]
    table = format_table(["App"] + list(GRAPHS_IN_MEMORY), rows)
    print_experiment("Figure 7b: NextDoor speedup over GNN reference "
                     "samplers", table,
                     notes=["paper: order of magnitude or more"])
    save_results("fig7b_vs_gnn_samplers", data)

    for app in APPS:
        for g in GRAPHS_IN_MEMORY:
            assert data[app][g] > 10.0, (app, g, data[app][g])
    assert max(data["k-hop"].values()) > 100.0
    record_table(min_speedup=min(v for per in data.values()
                                 for v in per.values()))
