"""Benchmark harness utilities."""

import json
import os

import pytest

from repro.bench import report, runner


class TestFormatTable:
    def test_alignment(self):
        table = report.format_table(["a", "bb"], [["x", 1.5], ["yy", 2.0]])
        lines = table.split("\n")
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_float_precision(self):
        table = report.format_table(["v"], [[1.23456]], precision=3)
        assert "1.235" in table

    def test_empty_rows(self):
        table = report.format_table(["a", "b"], [])
        assert "a" in table

    def test_print_experiment(self, capsys):
        report.print_experiment("Title", "table-body", notes=["a note"])
        out = capsys.readouterr().out
        assert "Title" in out
        assert "table-body" in out
        assert "a note" in out


class TestSaveResults:
    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
        path = report.save_results("exp", {"x": 1.5})
        with open(path) as f:
            assert json.load(f) == {"x": 1.5}

    def test_creates_directory(self, tmp_path, monkeypatch):
        target = tmp_path / "nested"
        monkeypatch.setattr(report, "RESULTS_DIR", str(target))
        report.save_results("exp", {})
        assert target.exists()


class TestRunnerConfigs:
    def test_paper_parameters(self):
        assert runner.paper_app("DeepWalk").walk_length == 100
        assert runner.paper_app("PPR").termination_prob == pytest.approx(0.01)
        n2v = runner.paper_app("node2vec")
        assert n2v.p == 2.0 and n2v.q == 0.5
        assert runner.paper_app("MultiRW").num_roots == 100
        assert runner.paper_app("k-hop").fanouts == (25, 10)
        layer = runner.paper_app("Layer")
        assert layer.step_size == 1000 and layer.max_size == 2000
        assert runner.paper_app("FastGCN").step_size == 64
        assert runner.paper_app("ClusterGCN").clusters_per_sample == 20

    def test_every_factory_constructs(self):
        for name in runner.APP_FACTORIES:
            assert runner.paper_app(name) is not None

    def test_walks_get_weighted_graphs(self):
        g = runner.paper_graph("ppi", "DeepWalk")
        assert g.is_weighted
        g2 = runner.paper_graph("ppi", "k-hop")
        assert not g2.is_weighted

    def test_walk_sample_count(self):
        g = runner.paper_graph("ppi", "DeepWalk")
        assert runner.walk_sample_count(g, "DeepWalk") == \
            min(g.num_vertices, 20000)
        assert runner.walk_sample_count(g, "k-hop") == 8192
        assert runner.walk_sample_count(g, "ClusterGCN") == 64

    def test_run_engine_cell(self):
        from repro.core.engine import NextDoorEngine
        result = runner.run_engine(NextDoorEngine(), "k-hop", "ppi",
                                   seed=0, num_samples=16)
        assert result.batch.num_samples == 16

    def test_run_engines_cell(self):
        """Engines that draw the same samples price one run; the
        reference sampler groups k-hop's pairs in sample order, so it
        runs on its own; KnightKing cannot express k-hop."""
        from repro.baselines import (
            KnightKingEngine,
            ReferenceSamplerEngine,
            SampleParallelEngine,
        )
        from repro.core.engine import NextDoorEngine
        engines = [NextDoorEngine(), SampleParallelEngine(),
                   KnightKingEngine(), ReferenceSamplerEngine()]
        nd, sp, kk, ref = runner.run_engines(engines, "k-hop", "ppi",
                                             seed=0, num_samples=16)
        assert kk is None
        assert sp.batch is nd.batch and ref.batch is not nd.batch
        assert [r.engine for r in (nd, sp, ref)] == [
            "NextDoor", "SP", "ReferenceSampler"]
        own = SampleParallelEngine().run(runner.paper_app("k-hop"),
                                         runner.paper_graph("ppi", "k-hop"),
                                         num_samples=16, seed=0)
        assert sp.seconds == own.seconds


class TestResultsDriftGate:
    """``pytest benchmarks/ --check-results``: the comparison it runs
    against each archived results file."""

    @pytest.fixture(scope="class")
    def gate(self):
        import importlib.util
        path = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                            "conftest.py")
        spec = importlib.util.spec_from_file_location("bench_gate", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_names_each_moved_cell(self, gate):
        archived = {"a": {"x": 1.0, "y": 2.0}, "n": "s", "gone": 3}
        fresh = {"a": {"x": 1.0 * (1 + 1e-12), "y": 2.1}, "n": "s",
                 "new": 4}
        assert gate.moved_cells(archived, fresh) == [
            "  a/y: 2.0 -> 2.1",
            "  gone: 3 -> '<absent>'",
            "  new: '<absent>' -> 4",
        ]

    def test_identical_rows_pass(self, gate, tmp_path, monkeypatch):
        monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
        (tmp_path / "exp.json").write_text(json.dumps({"x": [1, 2.5]}))
        gate.check_results("exp", {"x": [1, 2.5]})
        with pytest.raises(AssertionError, match="x/1: 2.5 -> 2.6"):
            gate.check_results("exp", {"x": [1, 2.6]})
