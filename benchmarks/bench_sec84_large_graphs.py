"""Section 8.4: sampling graphs that do not fit in GPU memory.

Paper results on com-Friendster (1.8B edges, > 16 GB):
- k-hop: 3.3e6 samples/s; layer sampling: 2e6 samples/s — both
  "computation bound and not memory transfer bound";
- DeepWalk / PPR: NextDoor gives about **half** KnightKing's
  throughput (transfer-bound: each cheap step re-ships sub-graphs);
- node2vec: NextDoor is **1.5x faster** (enough compute per step to
  amortise the transfers).

Reproduced claims: the crossover — KnightKing wins DeepWalk and PPR,
NextDoor wins node2vec — and k-hop's transfer share being a minority
of its runtime.
"""

from repro.baselines import KnightKingEngine
from repro.bench import format_table, paper_app, print_experiment, save_results
from repro.core.large_graph import LargeGraphNextDoor
from repro.graph import datasets


#: Paper setup: one walker per Friendster vertex.
PAPER_SAMPLES = 65_600_000


def _results():
    graph = datasets.load("friendster", seed=0, weighted=True)
    modeled_bytes = datasets.scaled_memory_bytes("friendster")
    samples = 20000
    data = {}
    for app_name in ("DeepWalk", "PPR", "node2vec"):
        nd = LargeGraphNextDoor(modeled_graph_bytes=modeled_bytes,
                                sample_scale=samples / PAPER_SAMPLES)
        assert not nd.fits_in_memory()
        nd_r = nd.run(paper_app(app_name), graph, num_samples=samples,
                      seed=1)
        kk_r = nd_r.priced_as(KnightKingEngine())
        data[app_name] = {
            "nd_seconds": nd_r.seconds,
            "kk_seconds": kk_r.seconds,
            "nd_vs_kk": kk_r.seconds / nd_r.seconds,
            "transfer_share": nd_r.transfer_seconds / nd_r.seconds,
        }
    for app_name in ("k-hop", "Layer"):
        nd = LargeGraphNextDoor(modeled_graph_bytes=modeled_bytes,
                                sample_scale=4096 / PAPER_SAMPLES)
        app = paper_app(app_name)
        nd_r = nd.run(app, graph, num_samples=4096, seed=1)
        data[app_name] = {
            "nd_seconds": nd_r.seconds,
            "samples_per_sec": 4096 / nd_r.seconds,
            "transfer_share": nd_r.transfer_seconds / nd_r.seconds,
        }
    return data


def test_sec84_large_graphs(benchmark, record_table):
    data = benchmark.pedantic(_results, rounds=1, iterations=1)
    rows = []
    for app, cell in data.items():
        rows.append([
            app,
            f"{cell['nd_seconds']:.3f}s",
            f"{cell.get('kk_seconds', float('nan')):.3f}s"
            if "kk_seconds" in cell else "-",
            f"{cell.get('nd_vs_kk', float('nan')):.2f}x"
            if "nd_vs_kk" in cell else "-",
            f"{cell['transfer_share']:.0%}",
        ])
    table = format_table(
        ["App", "NextDoor", "KnightKing", "ND/KK", "transfer share"], rows)
    print_experiment("Section 8.4: out-of-GPU-memory sampling (FriendS)",
                     table,
                     notes=["paper: KK ~2x ND on DeepWalk/PPR; ND 1.5x "
                            "on node2vec; k-hop/Layer compute-bound"])
    save_results("sec84_large_graphs", data)

    # The crossover: cheap walks lose to the CPU, node2vec wins.
    assert data["DeepWalk"]["nd_vs_kk"] < 1.0
    assert data["PPR"]["nd_vs_kk"] < 1.0
    assert data["node2vec"]["nd_vs_kk"] > 1.0
    # Cheap walks are transfer-bound; bulk samplers are not.
    assert data["DeepWalk"]["transfer_share"] > 0.5
    assert data["k-hop"]["transfer_share"] < 0.5
    assert data["Layer"]["transfer_share"] < 0.5
    record_table(deepwalk_nd_vs_kk=data["DeepWalk"]["nd_vs_kk"],
                 node2vec_nd_vs_kk=data["node2vec"]["nd_vs_kk"])
