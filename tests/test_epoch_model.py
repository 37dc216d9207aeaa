"""The GNN epoch cost model behind Tables 1 and 5."""

import pytest

from repro.bench.epoch_model import EpochCostModel, GNN_CONFIGS


class TestEpochCostModel:
    def test_fractions_in_unit_interval(self):
        model = EpochCostModel()
        for gnn in GNN_CONFIGS:
            for d in ("ppi", "orkut", "livej"):
                frac = model.sampling_fraction(gnn, d)
                assert 0.0 < frac < 1.0, (gnn, d)

    def test_nextdoor_epoch_never_slower(self):
        model = EpochCostModel()
        for gnn in ("FastGCN", "LADIES", "ClusterGCN"):
            for d in ("reddit", "orkut", "patents", "livej"):
                if model.out_of_memory(gnn, d):
                    continue
                assert model.end_to_end_speedup(gnn, d) > 0.95, (gnn, d)

    def test_speedup_grows_with_scale_for_importance_samplers(self):
        model = EpochCostModel()
        for gnn in ("FastGCN", "LADIES"):
            assert (model.end_to_end_speedup(gnn, "orkut")
                    > model.end_to_end_speedup(gnn, "ppi"))

    def test_only_clustergcn_orkut_ooms(self):
        model = EpochCostModel()
        assert model.out_of_memory("ClusterGCN", "orkut")
        assert not model.out_of_memory("ClusterGCN", "livej")
        assert not model.out_of_memory("FastGCN", "orkut")
        assert not model.out_of_memory("GraphSAGE", "orkut")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            EpochCostModel().epoch("FastGCN", "ppi", backend="magic")

    def test_graphsage_copy_penalty(self):
        model = EpochCostModel()
        costs = model.epoch("GraphSAGE", "livej", "nextdoor")
        assert costs.copy_seconds > 0
        fastgcn = model.epoch("FastGCN", "livej", "nextdoor")
        assert fastgcn.copy_seconds == 0.0
