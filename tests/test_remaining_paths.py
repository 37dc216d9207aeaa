"""Coverage for the remaining less-travelled paths."""

import io

import numpy as np
import pytest

from repro.api.apps import FastGCN, Layer
from repro.baselines import FrontierEngine, MessagePassingEngine
from repro.core.engine import NextDoorEngine


class TestFrameworkCollectivePaths:
    """Section 7 engines also execute collective applications (the
    paper reports 'similar results on other applications')."""

    @pytest.mark.parametrize("engine_cls",
                             [FrontierEngine, MessagePassingEngine])
    def test_layer_runs_and_is_slower(self, engine_cls, medium_graph):
        nd = NextDoorEngine().run(Layer(step_size=10, max_size=30),
                                  medium_graph, num_samples=32, seed=0)
        fw = engine_cls().run(Layer(step_size=10, max_size=30),
                              medium_graph, num_samples=32, seed=0)
        assert fw.seconds > nd.seconds
        assert fw.batch.num_samples == 32

    @pytest.mark.parametrize("engine_cls",
                             [FrontierEngine, MessagePassingEngine])
    def test_fastgcn_records_edges(self, engine_cls, medium_graph):
        r = engine_cls().run(FastGCN(step_size=8, batch_size=4),
                             medium_graph, num_samples=4, seed=0)
        assert len(r.batch.edges) == 2


class TestSamplingResultSave:
    def test_save_walk(self, medium_graph, tmp_path):
        from repro.api.apps import DeepWalk
        r = NextDoorEngine().run(DeepWalk(4), medium_graph,
                                 num_samples=8, seed=0)
        path = str(tmp_path / "w.npz")
        r.save(path)
        data = np.load(path)
        assert data["samples"].shape == (8, 4)
        assert data["roots"].shape == (8, 1)

    def test_save_with_edges(self, medium_graph, tmp_path):
        r = NextDoorEngine().run(FastGCN(step_size=8, batch_size=4),
                                 medium_graph, num_samples=4, seed=0)
        path = str(tmp_path / "f.npz")
        r.save(path)
        data = np.load(path)
        assert "edges" in data
        assert data["edges"].shape[1] == 3

    def test_save_per_step(self, medium_graph, tmp_path):
        from repro.api.apps import KHop
        r = NextDoorEngine().run(KHop((3, 2)), medium_graph,
                                 num_samples=8, seed=0)
        path = str(tmp_path / "k.npz")
        r.save(path)
        data = np.load(path)
        assert data["hop0"].shape == (8, 3)
        assert data["hop1"].shape == (8, 6)


class TestInfCap:
    def test_cap_binds_for_never_terminating_walk(self, medium_graph):
        from repro.api.apps import PPR
        # Termination probability so small no walk dies in 15 steps.
        r = NextDoorEngine().run(PPR(termination_prob=1e-9,
                                     max_steps=15),
                                 medium_graph, num_samples=16, seed=0)
        assert r.steps_run == 15


class TestCliFiguresCommand:
    def test_renders_from_custom_dirs(self, tmp_path):
        from repro.cli import main
        results = tmp_path / "r"
        results.mkdir()
        (results / "fig10_multi_gpu.json").write_text(
            '{"DeepWalk": {"ppi": 1.3, "livej": 2.8}}')
        out = io.StringIO()
        code = main(["figures", "--results", str(results),
                     "--out", str(tmp_path / "f")], out=out)
        assert code == 0
        assert "fig10_multi_gpu.svg" in out.getvalue()

    def test_empty_dir_message(self, tmp_path):
        from repro.cli import main
        out = io.StringIO()
        code = main(["figures", "--results", str(tmp_path),
                     "--out", str(tmp_path / "f")], out=out)
        assert code == 1
