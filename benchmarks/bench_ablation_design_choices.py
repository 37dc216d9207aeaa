"""Ablation (ours): which of NextDoor's design choices buys what.

DESIGN.md calls out three separable mechanisms from Section 6:
load-balanced kernel classes (Table 2), adjacency caching (shared
memory / registers), and sub-warp sharing.  This bench disables each
in isolation and reports the slowdown, answering "is each mechanism
actually load-bearing in the model?"

Expected: every ablation costs something on at least one workload;
caching matters most for the bulk samplers, load balancing most under
transit skew.
"""

from repro.bench import (
    format_table,
    paper_app,
    paper_graph,
    print_experiment,
    save_results,
    walk_sample_count,
)
from repro.core.engine import NextDoorEngine
from repro.core.scheduling import KernelPlanConfig

CONFIGS = {
    "full": KernelPlanConfig(),
    "no_load_balancing": KernelPlanConfig(enable_load_balancing=False),
    "no_caching": KernelPlanConfig(enable_caching=False),
    "no_subwarp_sharing": KernelPlanConfig(enable_subwarp_sharing=False),
}
APPS = ["DeepWalk", "node2vec", "k-hop"]
GRAPH = "livej"


def _ablation():
    data = {}
    for app_name in APPS:
        graph = paper_graph(GRAPH, app_name, seed=0)
        ns = walk_sample_count(graph, app_name)
        run = NextDoorEngine().run(paper_app(app_name), graph,
                                   num_samples=ns, seed=1)
        data[app_name] = {
            cfg_name: run.priced_as(NextDoorEngine(config=cfg)).seconds
            for cfg_name, cfg in CONFIGS.items()}
    return data


def test_ablation_design_choices(benchmark, record_table):
    data = benchmark.pedantic(_ablation, rounds=1, iterations=1)
    rows = []
    for app, per in data.items():
        full = per["full"]
        rows.append([app] + [f"{per[c] / full:.2f}x" for c in CONFIGS])
    table = format_table(["App (slowdown vs full)"] + list(CONFIGS), rows)
    print_experiment("Ablation: disabling NextDoor mechanisms (LiveJ)",
                     table)
    save_results("ablation_design_choices", data)

    for app, per in data.items():
        full = per["full"]
        # No ablated configuration may beat the full engine materially
        # (a few percent of span-floor noise is tolerated at the scaled
        # graph sizes).
        for cfg_name, seconds in per.items():
            assert seconds > full * 0.9, (app, cfg_name)
    # Each mechanism is load-bearing somewhere.
    assert any(data[a]["no_load_balancing"] > data[a]["full"] * 1.2
               for a in APPS)
    assert any(data[a]["no_caching"] > data[a]["full"] * 1.05
               for a in APPS)
    assert any(data[a]["no_subwarp_sharing"] > data[a]["full"] * 1.05
               for a in APPS)
    record_table(**{f"{a}_no_lb": data[a]["no_load_balancing"]
                    / data[a]["full"] for a in APPS})
