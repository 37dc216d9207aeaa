"""Table 5: end-to-end GNN speedup after integrating NextDoor.

Paper values:

==========  =====  ======  =====  =======  =====
GNN         PPI    Reddit  Orkut  Patents  LiveJ
==========  =====  ======  =====  =======  =====
FastGCN     1.25x  1.52x   4.75x  2.3x     4.31x
LADIES      1.07x  1.37x   2.27x  2.1x     2.34x
ClusterGCN  1.03x  1.20x   OOM    1.4x     1.51x
==========  =====  ======  =====  =======  =====

(The GraphSAGE row is capped by TensorFlow's host-copy requirement.)

Reproduced claims: speedups grow with graph size for FastGCN/LADIES,
FastGCN > LADIES on the big graphs, ClusterGCN gains are modest and
Orkut OOMs, and every cell stays within a factor ~2 of the paper's.
"""

from repro.bench import format_table, print_experiment, save_results
from repro.bench.epoch_model import EpochCostModel

DATASETS = ["ppi", "reddit", "orkut", "patents", "livej"]
PAPER = {
    "FastGCN": {"ppi": 1.25, "reddit": 1.52, "orkut": 4.75,
                "patents": 2.3, "livej": 4.31},
    "LADIES": {"ppi": 1.07, "reddit": 1.37, "orkut": 2.27,
               "patents": 2.1, "livej": 2.34},
    "ClusterGCN": {"ppi": 1.03, "reddit": 1.20, "orkut": None,
                   "patents": 1.4, "livej": 1.51},
}


def _speedups():
    model = EpochCostModel()
    data = {}
    for gnn in ["GraphSAGE", "FastGCN", "LADIES", "ClusterGCN"]:
        data[gnn] = {}
        for d in DATASETS:
            if model.out_of_memory(gnn, d):
                data[gnn][d] = None
            else:
                data[gnn][d] = model.end_to_end_speedup(gnn, d)
    return data


def test_table5_end_to_end(benchmark, record_table):
    data = benchmark.pedantic(_speedups, rounds=1, iterations=1)
    rows = []
    for gnn, per in data.items():
        paper = PAPER.get(gnn, {})
        rows.append(
            [gnn]
            + [("OOM" if per[d] is None else f"{per[d]:.2f}x")
               for d in DATASETS]
            + [("OOM" if paper.get(d, float("nan")) is None
                else f"{paper.get(d, float('nan'))}x") for d in DATASETS])
    headers = (["GNN"] + [f"ours:{d}" for d in DATASETS]
               + [f"paper:{d}" for d in DATASETS])
    table = format_table(headers, rows)
    print_experiment("Table 5: end-to-end GNN speedup with NextDoor",
                     table)
    save_results("table5_end_to_end", data)

    for gnn, paper_row in PAPER.items():
        for d, paper_v in paper_row.items():
            ours = data[gnn][d]
            if paper_v is None:
                assert ours is None, f"{gnn}/{d} should OOM"
            else:
                assert ours is not None
                assert paper_v / 2.2 < ours < paper_v * 2.2, \
                    (gnn, d, ours, paper_v)
    # Monotone growth with graph scale for the importance samplers.
    for gnn in ("FastGCN", "LADIES"):
        assert data[gnn]["orkut"] > data[gnn]["reddit"] > data[gnn]["ppi"]
    record_table(fastgcn_orkut=data["FastGCN"]["orkut"])
