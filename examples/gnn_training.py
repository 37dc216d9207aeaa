"""What sampling costs a GNN training epoch (Section 6.5).

Evaluates the epoch cost model at paper scale to show what the paper's
Table 1 / Table 5 measure: how much of an epoch the old CPU samplers
burned, and what integrating NextDoor buys end to end.  A trainer
consumes NextDoor's samples as arrays: ``do_sampling(...)`` plus
``SamplingResult.arrays()`` (docs/API.md, "Feeding a training loop").

    python examples/gnn_training.py
"""

from repro.bench.epoch_model import EpochCostModel, GNN_CONFIGS


def main() -> None:
    print("Epoch cost model at paper scale "
          "(Table 1: sampling share; Table 5: NextDoor speedup)")
    model = EpochCostModel()
    datasets_row = ["ppi", "reddit", "orkut", "patents", "livej"]
    header = f"{'GNN':12s} " + " ".join(f"{d:>14s}" for d in datasets_row)
    print(header)
    for gnn in GNN_CONFIGS:
        cells = []
        for d in datasets_row:
            frac = model.sampling_fraction(gnn, d)
            if model.out_of_memory(gnn, d):
                cells.append(f"{frac:4.0%} /   OOM")
            else:
                speedup = model.end_to_end_speedup(gnn, d)
                cells.append(f"{frac:4.0%} / {speedup:4.2f}x")
        print(f"{gnn:12s} " + " ".join(f"{c:>14s}" for c in cells))


if __name__ == "__main__":
    main()
