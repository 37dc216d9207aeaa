"""Autotuner: TuneConfig semantics, the database, the search, the CLI."""

import io
import json
import os

import numpy as np
import pytest

from repro.api import apps
from repro.cli import main
from repro.core.engine import NextDoorEngine
from repro.graph.generators import rmat_graph
from repro.tune import (
    DB_ENV,
    DEFAULT_TUNE,
    TuneConfig,
    TuneDB,
    graph_fingerprint,
)
from repro.tune.search import autotune


@pytest.fixture()
def graph():
    return rmat_graph(400, 2400, seed=19, name="tune-test-rmat")


class TestTuneConfig:
    def test_defaults_are_default(self):
        assert DEFAULT_TUNE.is_default
        assert DEFAULT_TUNE.describe() == "default"

    def test_describe_lists_non_defaults(self):
        cfg = TuneConfig(backend="cnative", chunk_size=1024)
        assert "backend=cnative" in cfg.describe()
        assert "chunk_size=1024" in cfg.describe()
        assert "inflight" not in cfg.describe()

    def test_dict_round_trip(self):
        cfg = TuneConfig(backend="numpy", chunk_size=256, inflight=2)
        assert TuneConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown TuneConfig"):
            TuneConfig.from_dict({"warp_size": 64})
        # Fields earlier builds stored are unknown to this one.
        with pytest.raises(ValueError, match="unknown TuneConfig"):
            TuneConfig.from_dict({"relabel": "degree"})

    @pytest.mark.parametrize("kwargs", [
        {"chunk_size": 0}, {"chunk_size": -5}, {"inflight": 0},
        {"backend": "cuda"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TuneConfig(**kwargs)

    def test_engine_applies_chunk(self):
        engine = NextDoorEngine(tune=TuneConfig(chunk_size=128))
        assert engine.chunk_size == 128

    def test_explicit_chunk_beats_tuned(self):
        engine = NextDoorEngine(tune=TuneConfig(chunk_size=128),
                                chunk_size=64)
        assert engine.chunk_size == 64


class TestTuneDB:
    def test_env_var_names_path(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.json")
        monkeypatch.setenv(DB_ENV, path)
        assert TuneDB().path == path

    def test_explicit_path_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DB_ENV, str(tmp_path / "env.json"))
        assert TuneDB(str(tmp_path / "flag.json")).path == \
            str(tmp_path / "flag.json")

    def test_record_save_load(self, tmp_path, graph):
        path = str(tmp_path / "db.json")
        db = TuneDB(path)
        cfg = TuneConfig(backend="cnative", inflight=2)
        db.record("DeepWalk", graph, cfg, score=0.25, baseline=1.0, trials=9)
        db.save()
        reloaded = TuneDB(path)
        assert reloaded.lookup("DeepWalk", graph) == cfg
        entry = reloaded.get_entry("DeepWalk", graph)
        assert entry["speedup"] == pytest.approx(4.0)
        assert entry["trials"] == 9
        assert reloaded.validate() == []

    def test_lookup_misses_are_none(self, tmp_path, graph):
        db = TuneDB(str(tmp_path / "db.json"))
        assert db.lookup("DeepWalk", graph) is None

    def test_two_writers_interleave_without_clobbering(self, tmp_path,
                                                       graph):
        # Race shape: both writers load the (empty) DB, then each
        # records a different entry and saves.  Without the locked
        # read-merge-write in save(), whichever writer saves last
        # would erase the other's entry.
        path = str(tmp_path / "db.json")
        other = rmat_graph(400, 2400, seed=23, name="tune-test-other")
        writer_a = TuneDB(path)
        writer_b = TuneDB(path)
        writer_a.record("DeepWalk", graph, TuneConfig(inflight=2),
                        score=0.5, baseline=1.0, trials=3)
        writer_b.record("PPR", other, TuneConfig(chunk_size=512),
                        score=0.25, baseline=1.0, trials=4)
        writer_a.save()
        writer_b.save()
        merged = TuneDB(path)
        assert merged.lookup("DeepWalk", graph) == \
            TuneConfig(inflight=2)
        assert merged.lookup("PPR", other) == TuneConfig(chunk_size=512)

    def test_save_only_overwrites_own_dirty_keys(self, tmp_path, graph):
        # A stale instance that merely *read* an entry must not revert
        # a newer on-disk value for it when saving its own work.
        path = str(tmp_path / "db.json")
        first = TuneDB(path)
        first.record("DeepWalk", graph, TuneConfig(inflight=2),
                     score=0.5, baseline=1.0, trials=3)
        first.save()
        stale = TuneDB(path)  # holds inflight=2 in memory
        newer = TuneDB(path)
        newer.record("DeepWalk", graph, TuneConfig(chunk_size=256),
                     score=0.4, baseline=1.0, trials=5)
        newer.save()
        other = rmat_graph(400, 2400, seed=23, name="tune-test-other")
        stale.record("PPR", other, TuneConfig(), score=1.0,
                     baseline=1.0, trials=1)
        stale.save()
        merged = TuneDB(path)
        assert merged.lookup("DeepWalk", graph) == \
            TuneConfig(chunk_size=256)
        assert merged.lookup("PPR", other) == TuneConfig()

    def test_concurrent_process_writers_all_survive(self, tmp_path):
        # Two real processes hammer the same DB through the advisory
        # lock; every entry must survive.
        import subprocess
        import sys
        path = str(tmp_path / "db.json")
        script = (
            "import sys\n"
            "from repro.tune import TuneDB, TuneConfig\n"
            "from repro.graph.generators import rmat_graph\n"
            "tag = int(sys.argv[1]); path = sys.argv[2]\n"
            "g = rmat_graph(200, 900, seed=tag, name=f'w{tag}')\n"
            "for i in range(5):\n"
            "    db = TuneDB(path)\n"
            "    db.record(f'app{tag}.{i}', g, TuneConfig(),\n"
            "              score=1.0, baseline=1.0, trials=1)\n"
            "    db.save()\n")
        procs = [subprocess.Popen(
            [sys.executable, "-c", script, str(tag), path],
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(
                     [os.path.join(os.path.dirname(__file__), os.pardir,
                                   "src")] +
                     os.environ.get("PYTHONPATH", "").split(os.pathsep))})
            for tag in (1, 2)]
        for p in procs:
            assert p.wait(timeout=120) == 0
        merged = TuneDB(path)
        assert merged.validate() == []
        assert len(merged.entries) == 10

    def test_fingerprint_tracks_content(self, graph):
        other = rmat_graph(400, 2400, seed=23, name="tune-test-rmat")
        assert graph_fingerprint("DeepWalk", graph) != \
            graph_fingerprint("DeepWalk", other)

    def test_save_is_atomic_and_sorted(self, tmp_path, graph):
        path = str(tmp_path / "db.json")
        db = TuneDB(path)
        db.record("DeepWalk", graph, TuneConfig(), score=1.0,
                  baseline=1.0, trials=1)
        db.save()
        text = open(path).read()
        assert json.loads(text)["version"] == 1
        assert not [n for n in os.listdir(tmp_path)
                    if n.startswith(".tune-")]

    def test_validate_flags_bad_schema(self):
        assert TuneDB.validate_data([]) == ["top level is not an object"]
        assert TuneDB.validate_data({"version": 99, "entries": {}})
        bad_entry = {"version": 1, "entries": {"k": {"app": "x"}}}
        assert any("missing" in p
                   for p in TuneDB.validate_data(bad_entry))
        bad_cfg = {"version": 1, "entries": {"k": {
            "app": "x", "graph": "g", "config": {"bogus": 1},
            "score": 1.0, "baseline": 1.0, "speedup": 1.0,
            "trials": 1}}}
        assert any("config invalid" in p
                   for p in TuneDB.validate_data(bad_cfg))

    def test_corrupt_db_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "entries": {}}')
        with pytest.raises(ValueError, match="invalid tuning database"):
            TuneDB(str(path))

    def test_removed_backend_entry_is_a_miss(self, tmp_path, graph, capsys):
        """An entry an earlier build wrote for a backend this build no
        longer has is dropped on load; the file is not rejected."""
        db = TuneDB(str(tmp_path / "old.json"))
        key = db.record("x", graph, TuneConfig(), score=1.0,
                        baseline=1.0, trials=1)
        db.entries[key]["config"]["backend"] = "auto"
        db.save()
        assert TuneDB(db.path).entries == {}
        assert capsys.readouterr().err.count("note:") == 1

    def test_retired_field_entry_is_a_miss(self, tmp_path, graph, capsys):
        """An entry in the format of the last build that had relabeling
        and threshold tuning is dropped on load with one note, so
        ``--tuned`` sees a miss rather than an invalid database."""
        db = TuneDB(str(tmp_path / "old.json"))
        key = db.record("DeepWalk", graph, TuneConfig(chunk_size=1024),
                        score=1.0, baseline=1.0, trials=1)
        db.entries[key]["objective"] = "wallclock"
        db.entries[key]["config"].update(
            relabel=None, subwarp_limit=32, block_limit=1024)
        db.save()
        assert TuneDB(db.path).lookup("DeepWalk", graph) is None
        err = capsys.readouterr().err
        assert err.count("note:") == 1 and "re-run `repro tune`" in err


class TestSearch:
    def test_backend_stage_tries_only_runnable_backends(
            self, tmp_path, graph, monkeypatch):
        """No C toolchain: no budget spent on a backend trial."""
        from repro.native import cnative
        monkeypatch.setattr(cnative, "find_compiler", lambda: None)
        summary = autotune(apps.DeepWalk(walk_length=4), graph,
                           db=TuneDB(str(tmp_path / "db.json")),
                           repeats=1, budget=3, num_samples=32,
                           save=False)
        assert [t["config"]["backend"]
                for t in summary["history"]] == [None] * 3

    def test_budget_caps_trials(self, tmp_path, graph):
        summary = autotune(apps.DeepWalk(walk_length=4), graph,
                           db=TuneDB(str(tmp_path / "db.json")),
                           repeats=1, budget=2, num_samples=32,
                           save=False)
        assert summary["trials"] == 2

    def test_records_in_db_and_saves(self, tmp_path, graph):
        db = TuneDB(str(tmp_path / "db.json"))
        summary = autotune(apps.KHop(fanouts=(4, 2)), graph, db=db,
                           repeats=1, budget=4, num_samples=64)
        assert os.path.exists(summary["db_path"])
        reloaded = TuneDB(summary["db_path"])
        assert reloaded.lookup(summary["app"], graph) == \
            TuneConfig.from_dict(summary["config"])
        assert reloaded.validate() == []

    def test_history_carries_model_counters(self, tmp_path, graph):
        summary = autotune(apps.DeepWalk(walk_length=4), graph,
                           db=TuneDB(str(tmp_path / "db.json")),
                           repeats=1, budget=3, num_samples=32,
                           save=False)
        assert all(t["counters"] is not None
                   for t in summary["history"])
        assert "sm_busy_cycles" in summary["history"][0]["counters"]

    def test_rejects_bad_arguments(self, tmp_path, graph):
        app = apps.DeepWalk(walk_length=4)
        db = TuneDB(str(tmp_path / "db.json"))
        with pytest.raises(ValueError, match="budget"):
            autotune(app, graph, db=db, budget=0)
        with pytest.raises(ValueError, match="repeats"):
            autotune(app, graph, db=db, repeats=0)

    def test_tuned_samples_match_default_when_chunk_untouched(
            self, graph):
        """Whatever the search picks (chunk size aside), applying it
        must not change sampled values."""
        cfg = TuneConfig(backend="cnative", inflight=2)
        app = apps.DeepWalk(walk_length=6)
        base = NextDoorEngine().run(app, graph, num_samples=64, seed=7)
        tuned = NextDoorEngine(tune=cfg).run(
            apps.DeepWalk(walk_length=6), graph, num_samples=64, seed=7)
        for a, b in zip(base.batch.step_vertices,
                        tuned.batch.step_vertices):
            assert np.array_equal(a, b)

    def test_full_stage_sweep_completes(self, tmp_path, graph,
                                        monkeypatch, process_pool):
        """A budget large enough to reach every stage (numpy only, so
        the workers are processes and the in-flight cap is searched):
        each trial moves only the three knobs the search owns."""
        from repro.native import cnative
        monkeypatch.setattr(cnative, "find_compiler", lambda: None)
        summary = autotune(apps.KHop(fanouts=(8, 4)), graph,
                           db=TuneDB(str(tmp_path / "db.json")),
                           repeats=1, budget=32, num_samples=128,
                           workers=1, save=False)
        assert summary["trials"] <= 32
        for trial in summary["history"]:
            assert trial["config"].keys() == {"backend", "chunk_size",
                                              "inflight"}
        assert {t["config"]["inflight"] for t in summary["history"]} > {None}

    def test_engine_error_propagates(self, tmp_path, graph):
        """An error raised by the very first trial is the caller's to
        see — not an "infeasible config"."""
        class Boom:
            def __init__(self, **kwargs):
                pass

            def run(self, *args, **kwargs):
                raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            autotune(apps.DeepWalk(walk_length=4), graph,
                     db=TuneDB(str(tmp_path / "db.json")),
                     engine_cls=Boom, save=False)

    def test_inflight_not_searched_on_chunk_threads(self, tmp_path,
                                                    graph):
        """Under a compiled backend ``workers`` are threads and the
        in-flight cap is not read: no trial may vary it."""
        from repro.native.backend import available_backends, backend_scope
        if "cnative" not in available_backends():
            pytest.skip("no C toolchain")
        with backend_scope("cnative"):
            summary = autotune(apps.DeepWalk(walk_length=4), graph,
                               db=TuneDB(str(tmp_path / "db.json")),
                               repeats=1, budget=32, num_samples=32,
                               workers=2, save=False)
        inflight = [t["config"]["inflight"] for t in summary["history"]]
        assert inflight == [None] * len(inflight)

    def test_metrics_counters_bump(self, tmp_path, graph):
        from repro.obs import get_metrics
        before = get_metrics().snapshot("tune.").get("tune.trials", 0)
        autotune(apps.DeepWalk(walk_length=4), graph,
                 db=TuneDB(str(tmp_path / "db.json")),
                 repeats=1, budget=2, num_samples=32, save=False)
        after = get_metrics().snapshot("tune.")["tune.trials"]
        assert after == before + 2


class TestCLI:
    def test_chunk_size_validation(self):
        out = io.StringIO()
        code = main(["sample", "--app", "DeepWalk", "--graph", "ppi",
                     "--samples", "8", "--chunk-size", "0"], out=out)
        assert code == 2
        assert "--chunk-size must be >= 1" in out.getvalue()

    def test_chunk_size_negative(self):
        out = io.StringIO()
        code = main(["sample", "--app", "DeepWalk", "--graph", "ppi",
                     "--samples", "8", "--chunk-size", "-4"], out=out)
        assert code == 2
        assert "error:" in out.getvalue()

    def test_tune_then_tuned_sample(self, tmp_path):
        db_path = str(tmp_path / "db.json")
        out = io.StringIO()
        code = main(["tune", "--app", "DeepWalk", "--graph", "ppi",
                     "--repeats", "1", "--budget", "3",
                     "--samples", "64", "--db", db_path], out=out)
        assert code == 0, out.getvalue()
        assert "saved to" in out.getvalue()
        assert TuneDB(db_path).validate() == []
        out = io.StringIO()
        code = main(["sample", "--app", "DeepWalk", "--graph", "ppi",
                     "--samples", "32", "--tuned",
                     "--tune-db", db_path], out=out)
        assert code == 0, out.getvalue()
        assert "tuned config:" in out.getvalue()

    def test_explicit_backend_flag_beats_tuned_backend(self, tmp_path):
        """Precedence: --backend on the command line wins over the
        tuning database's backend, like it wins over $REPRO_BACKEND."""
        from repro.bench.runner import paper_graph
        db_path = str(tmp_path / "db.json")
        db = TuneDB(db_path)
        graph = paper_graph("ppi", "DeepWalk", seed=0)
        db.record("DeepWalk", graph,
                  TuneConfig(backend="cnative", chunk_size=1024),
                  score=0.5, baseline=1.0, trials=3)
        db.save()
        out = io.StringIO()
        code = main(["sample", "--app", "DeepWalk", "--graph", "ppi",
                     "--samples", "16", "--tuned", "--tune-db", db_path,
                     "--backend", "numpy"], out=out)
        assert code == 0, out.getvalue()
        text = out.getvalue()
        # The rest of the tuned config still applies...
        assert "chunk_size=1024" in text
        # ...but the database's backend choice is dropped.
        assert "backend=cnative" not in text

    def test_tuned_env_var(self, tmp_path, monkeypatch):
        db_path = str(tmp_path / "db.json")
        monkeypatch.setenv("REPRO_TUNED", "1")
        monkeypatch.setenv(DB_ENV, db_path)
        out = io.StringIO()
        code = main(["sample", "--app", "DeepWalk", "--graph", "ppi",
                     "--samples", "16"], out=out)
        assert code == 0, out.getvalue()
        assert "no tuning entry" in out.getvalue()

    def test_tuned_rejected_for_cpu_engines(self):
        out = io.StringIO()
        code = main(["sample", "--app", "DeepWalk", "--graph", "ppi",
                     "--samples", "8", "--engine", "reference",
                     "--tuned"], out=out)
        assert code == 2
        assert "NextDoor-family" in out.getvalue()

    @pytest.mark.parametrize("flag,value", [
        ("--budget", "0"), ("--repeats", "0"), ("--samples", "0"),
    ])
    def test_tune_flag_validation(self, flag, value):
        out = io.StringIO()
        code = main(["tune", "--app", "DeepWalk", "--graph", "ppi",
                     flag, value], out=out)
        assert code == 2
        assert "error:" in out.getvalue()

    def test_tune_unknown_graph(self):
        out = io.StringIO()
        code = main(["tune", "--app", "DeepWalk", "--graph",
                     "nope-graph"], out=out)
        assert code == 2
        assert "unknown graph" in out.getvalue()
