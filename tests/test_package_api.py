"""Public API surface: what a downstream user imports must exist."""

import importlib

import pytest


class TestTopLevel:
    def test_version(self):
        import repro
        assert repro.__version__

    def test_headline_imports(self):
        from repro import (
            CSRGraph,
            NextDoorEngine,
            Sample,
            SampleBatch,
            SamplingApp,
            SamplingResult,
            SamplingType,
            datasets,
        )
        assert NextDoorEngine and CSRGraph and datasets

    def test_constants(self):
        from repro import INF_STEPS, NULL_VERTEX
        assert NULL_VERTEX == -1
        assert INF_STEPS == -1


class TestAllDeclarations:
    """Every name in a package's __all__ must resolve."""

    @pytest.mark.parametrize("module_name", [
        "repro",
        "repro.api",
        "repro.api.apps",
        "repro.graph",
        "repro.gpu",
        "repro.core",
        "repro.baselines",
        "repro.train",
        "repro.bench",
    ])
    def test_all_resolvable(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"


class TestSurvivingSurface:
    """One vertex-id space and no autotuner: the exact names."""

    def test_graph_exports(self):
        import repro.graph
        assert sorted(repro.graph.__all__) == [
            "CSRGraph", "barabasi_albert_graph", "clustered_graph",
            "erdos_renyi_graph", "rmat_graph"]

    def test_tuner_is_gone(self):
        from repro.api.apps import DeepWalk
        from repro.core.engine import NextDoorEngine, do_sampling
        from repro.graph import datasets
        from repro.runtime.context import ExecutionContext
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.tune")
        with pytest.raises(TypeError):
            NextDoorEngine(tune=None)
        with pytest.raises(TypeError):
            do_sampling(DeepWalk(walk_length=2), datasets.load("ppi"), 4,
                        tune=None)
        with pytest.raises(TypeError):
            ExecutionContext(0, inflight=2)

    def test_checkpointing_is_gone(self):
        from repro.api.apps import DeepWalk
        from repro.core.engine import NextDoorEngine, do_sampling
        from repro.graph import datasets
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.runtime.checkpoint")
        for kwargs in ({"checkpoint_dir": "ck"}, {"resume": True}):
            with pytest.raises(TypeError):
                NextDoorEngine(**kwargs)
            with pytest.raises(TypeError, match="valid keywords"):
                do_sampling(DeepWalk(walk_length=2), datasets.load("ppi"),
                            4, **kwargs)


class TestAppRegistry:
    def test_all_apps_instantiable(self):
        from repro.api.apps import ALL_APPS
        for cls in ALL_APPS:
            app = cls()
            assert app.name
            assert app.steps() != 0

    def test_random_walk_set(self):
        from repro.api.apps import RANDOM_WALKS
        from repro.api.types import SamplingType
        for cls in RANDOM_WALKS:
            app = cls()
            assert app.sampling_type() is SamplingType.INDIVIDUAL
            assert app.sample_size(0) == 1


class TestEngineRegistry:
    def test_cli_engines_cover_baselines(self):
        from repro.cli import ENGINES
        assert set(ENGINES) == {"nextdoor", "sp", "tp", "knightking",
                                "reference", "gunrock", "tigr"}

    def test_engine_names_unique(self):
        from repro.cli import ENGINES
        names = [cls.engine_name for cls in ENGINES.values()]
        assert len(set(names)) == len(names)
