"""Figure 9: NextDoor vs. Gunrock- and Tigr-style abstractions.

"Low parallelism and poor load balancing due to the mismatch between
graph sampling and graph processing abstraction result in speedup."
(Section 7 details: both abstractions give each transit one degree of
parallelism and process its samples sequentially; the frontier
abstraction additionally launches a thread per *neighbor* even though
sampling needs only m of them.)

Reproduced claim: NextDoor beats both on every (app, graph) cell, with
the largest wins where the abstraction mismatch is largest (k-hop's
m << degree).
"""

from repro.bench import (
    GRAPHS_IN_MEMORY,
    format_table,
    print_experiment,
    run_engines,
    save_results,
)
from repro.baselines import FrontierEngine, MessagePassingEngine
from repro.core.engine import NextDoorEngine

APPS = ["DeepWalk", "PPR", "k-hop"]


def _speedups():
    nd = NextDoorEngine()
    frameworks = {"Gunrock": FrontierEngine(),
                  "Tigr": MessagePassingEngine()}
    data = {}
    for app in APPS:
        data[app] = {}
        for graph in GRAPHS_IN_MEMORY:
            nd_r, *others = run_engines([nd, *frameworks.values()], app,
                                        graph, seed=1)
            data[app][graph] = {name: r.seconds / nd_r.seconds
                                for name, r in zip(frameworks, others)}
    return data


def test_fig9_vs_graph_frameworks(benchmark, record_table):
    data = benchmark.pedantic(_speedups, rounds=1, iterations=1)
    rows = []
    for app in APPS:
        for fw in ("Gunrock", "Tigr"):
            rows.append([f"{app} vs {fw}"]
                        + [f"{data[app][g][fw]:.1f}x"
                           for g in GRAPHS_IN_MEMORY])
    table = format_table(["Comparison"] + list(GRAPHS_IN_MEMORY), rows)
    print_experiment("Figure 9: NextDoor speedup over graph-processing "
                     "frameworks", table)
    save_results("fig9_vs_graph_frameworks", data)

    for app in APPS:
        for g in GRAPHS_IN_MEMORY:
            for fw in ("Gunrock", "Tigr"):
                assert data[app][g][fw] > 1.5, (app, g, fw)
    khop_min = min(min(cell.values()) for cell in data["k-hop"].values())
    walk_max = max(max(cell.values()) for cell in data["DeepWalk"].values())
    assert khop_min > walk_max / 20, "sanity: k-hop wins are the largest"
    assert min(min(c.values()) for c in data["k-hop"].values()) > 20.0
    record_table(khop_min=khop_min)
