"""Table 1: fraction of GNN training time spent in graph sampling.

The paper motivates NextDoor with this table: existing GNNs spend
24%-62% of each epoch inside their CPU samplers.  The epoch cost model
evaluates the same accounting at paper scale (see
``repro/bench/epoch_model.py``); the headline assertion is the paper's
"up to 62%" claim — some (GNN, graph) cell must sit in that band — and
no cell may be trivially zero.
"""

from repro.bench import format_table, print_experiment, save_results
from repro.bench.epoch_model import EpochCostModel, GNN_CONFIGS

DATASETS = ["ppi", "reddit", "orkut", "patents", "livej"]


def _fractions():
    model = EpochCostModel()
    return {
        gnn: {d: model.sampling_fraction(gnn, d) for d in DATASETS}
        for gnn in GNN_CONFIGS
    }


def test_table1_sampling_fraction(benchmark, record_table):
    fractions = benchmark.pedantic(_fractions, rounds=1, iterations=1)
    rows = [[gnn] + [f"{fractions[gnn][d]:.0%}" for d in DATASETS]
            for gnn in fractions]
    table = format_table(["GNN"] + DATASETS, rows)
    print_experiment(
        "Table 1: sampling share of a training epoch (reference samplers)",
        table, notes=["paper: 24%-62% across cells, 'up to 62%'"])
    save_results("table1_sampling_fraction", fractions)

    values = [v for per in fractions.values() for v in per.values()]
    assert max(values) > 0.5, "some GNN should be sampling-dominated"
    assert max(values) < 0.95, "sampling never entirely swamps training"
    assert all(v > 0.0 for v in values)
    # GraphSAGE's fraction sits in the paper's 25%-51% band.
    assert 0.15 < fractions["GraphSAGE"]["ppi"] < 0.6
    record_table(max_fraction=max(values))
