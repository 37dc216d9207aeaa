"""Figure 8: L2 cache read transactions, NextDoor relative to SP.

"NextDoor performs a fraction of the transactions of SP because it
performs coalesced reads and caches edges of transit vertices in shared
memory and registers."

Reproduced claim: the ND/SP L2-read ratio is below 1 on every (app,
graph) cell, well below 1 for the bulk samplers (k-hop, Layer), and
highest for node2vec, whose cross-list membership probes no transit
grouping can cache.
"""

import numpy as np

from repro.bench import (
    GRAPHS_IN_MEMORY,
    format_table,
    print_experiment,
    run_engines,
    save_results,
)
from repro.baselines import SampleParallelEngine
from repro.core.engine import NextDoorEngine

APPS = ["k-hop", "Layer", "DeepWalk", "PPR", "node2vec"]


def _ratios():
    nd = NextDoorEngine()
    sp = SampleParallelEngine()
    data = {}
    for app in APPS:
        data[app] = {}
        for graph in GRAPHS_IN_MEMORY:
            nd_r, sp_r = run_engines([nd, sp], app, graph, seed=1)
            data[app][graph] = (
                nd_r.metrics.counters.l2_read_transactions
                / max(sp_r.metrics.counters.l2_read_transactions, 1.0))
    return data


def test_fig8_l2_transactions(benchmark, record_table):
    data = benchmark.pedantic(_ratios, rounds=1, iterations=1)
    rows = [[app] + [f"{data[app][g]:.2f}" for g in GRAPHS_IN_MEMORY]
            for app in APPS]
    table = format_table(["App (ND/SP L2 reads)"] + list(GRAPHS_IN_MEMORY),
                         rows)
    print_experiment("Figure 8: L2 read transactions, NextDoor / SP",
                     table, notes=["paper: ND performs a fraction of "
                                   "SP's transactions"])
    save_results("fig8_l2_transactions", data)

    for app in APPS:
        for g in GRAPHS_IN_MEMORY:
            assert data[app][g] < 1.0, (app, g, data[app][g])
    bulk = np.mean([data[a][g] for a in ("k-hop", "Layer")
                    for g in GRAPHS_IN_MEMORY])
    n2v = np.mean(list(data["node2vec"].values()))
    assert bulk < 0.5, "bulk samplers cache and coalesce almost everything"
    assert n2v > bulk, "node2vec's uncacheable probes keep its ratio high"
    record_table(bulk_ratio=bulk, node2vec_ratio=n2v)
