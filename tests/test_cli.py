"""Command-line interface."""

import argparse
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["sample", "--app", "bogus"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["sample", "--app", "DeepWalk", "--shards", "2"],
        ["sample", "--app", "DeepWalk", "--plan", "plan.json"],
        ["plan", "--shards", "2"],
    ])
    def test_sharding_surface_is_gone(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["sample", "--app", "DeepWalk", "--objective", "model"],
         "unrecognized arguments"),
        (["bench", "check"], "invalid choice"),
    ])
    def test_model_objective_and_bench_check_are_gone(self, argv, message,
                                                      capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_tuning_surface_is_gone(self, tmp_path, monkeypatch):
        for argv in (["tune", "--app", "DeepWalk"],
                     ["sample", "--app", "DeepWalk", "--tuned"],
                     ["sample", "--app", "DeepWalk", "--tune-db", "t.json"]):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2
        # The retired environment switch is inert: same samples, no
        # "tuned config:" line.
        sample = ["sample", "--app", "DeepWalk", "--graph", "ppi",
                  "--samples", "16", "--out"]
        plain, env = str(tmp_path / "plain.npz"), str(tmp_path / "env.npz")
        assert run_cli(sample + [plain])[0] == 0
        monkeypatch.setenv("REPRO_TUNED", "1")
        code, out = run_cli(sample + [env])
        assert code == 0 and "tuned config:" not in out
        with np.load(plain) as a, np.load(env) as b:
            assert sorted(a.files) == sorted(b.files)
            assert all(np.array_equal(a[k], b[k]) for k in a.files)

    @pytest.mark.parametrize("argv", [
        ["sample", "--app", "DeepWalk", "--stats-format", "json"],
        ["bench", "list", "--stats-format", "openmetrics"],
        ["serve", "--stats-format", "openmetrics"],
        ["sample", "--app", "DeepWalk", "--flight-dir", "flights"],
    ])
    def test_stats_format_and_flight_dir_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_app_message_names_choices(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sample", "--app", "bogus"])
        err = capsys.readouterr().err
        assert "invalid choice" in err and "DeepWalk" in err


class TestErrorPaths:
    def test_unknown_graph_name(self):
        code, out = run_cli(["sample", "--app", "DeepWalk",
                             "--graph", "bogus"])
        assert code == 2
        assert "unknown graph" in out
        assert "ppi" in out  # the message lists valid datasets

    def test_missing_graph_file(self, tmp_path):
        path = str(tmp_path / "does_not_exist.txt")
        code, out = run_cli(["sample", "--app", "DeepWalk",
                             "--graph", path, "--samples", "4"])
        assert code == 2
        assert "not found" in out and path in out

    def test_unreadable_graph_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2 3\n")
        code, out = run_cli(["sample", "--app", "DeepWalk",
                             "--graph", str(path), "--samples", "4"])
        assert code == 2
        assert "could not load" in out

    def test_graph_from_edge_list_file(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        code, out = run_cli(["sample", "--app", "DeepWalk",
                             "--graph", str(path), "--samples", "4"])
        assert code == 0
        assert "tri.txt" in out

    def test_negative_workers_sample(self):
        code, out = run_cli(["sample", "--app", "DeepWalk",
                             "--graph", "ppi", "--samples", "4",
                             "--workers", "-2"])
        assert code == 2
        assert "--workers" in out and "-2" in out

    def test_negative_workers_message_names_no_pool(self):
        # Under cnative --workers N is N threads, not a worker pool.
        code, out = run_cli(["sample", "--app", "DeepWalk",
                             "--graph", "ppi", "--samples", "4",
                             "--workers", "-1"])
        assert code == 2
        assert "--workers must be >= 0, got -1" in out
        assert "worker pool" not in out

    def test_bad_workers_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        assert run_cli(["sample", "--app", "DeepWalk", "--graph", "ppi",
                        "--samples", "4"]) == (
            2, "error: $REPRO_WORKERS must be an integer >= 0, got 'abc'\n")

    def test_pool_fault_warns_without_workers(self):
        """At ``--workers 0`` no worker process exists under any
        backend, so a worker-side fault cannot fire — and says so."""
        code, out = run_cli(["sample", "--app", "DeepWalk", "--graph",
                             "ppi", "--samples", "10", "--backend", "numpy",
                             "--workers", "0", "--fault-plan",
                             "chunk-error:0"])
        assert code == 0
        assert "warning: chunk-error will not fire: --workers 0" in out

    def test_interrupt_step_fires_without_workers(self):
        """A parent-side fault needs no worker: it stops a ``--workers
        0`` run with no warning, and the flag's help says so."""
        code, out = run_cli(["sample", "--app", "DeepWalk", "--graph",
                             "ppi", "--samples", "10", "--backend", "numpy",
                             "--workers", "0", "--fault-plan",
                             "interrupt-step:1"])
        assert code == 1
        assert "injected interrupt at step 1" in out
        assert "warning" not in out
        sample = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)
                      ).choices["sample"]
        help_text = next(a.help for a in sample._actions
                         if "--fault-plan" in a.option_strings)
        assert "inert" not in help_text
        assert "interrupt-step fires at any --workers" in help_text

    def test_negative_workers_compare(self):
        code, out = run_cli(["compare", "--apps", "DeepWalk",
                             "--graph", "ppi", "--workers", "-1"])
        assert code == 2
        assert "--workers" in out

    def test_chunk_size_validation(self):
        code, out = run_cli(["sample", "--app", "DeepWalk", "--graph", "ppi",
                             "--samples", "8", "--chunk-size", "0"])
        assert code == 2
        assert "--chunk-size must be >= 1" in out

    def test_chunk_size_negative(self):
        code, out = run_cli(["sample", "--app", "DeepWalk", "--graph", "ppi",
                             "--samples", "8", "--chunk-size", "-4"])
        assert code == 2
        assert "error:" in out

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_serve_rejects_chunk_size_at_start(self, size):
        code, out = run_cli(["serve", "--port", "0", "--chunk-size", size])
        assert code == 2
        assert "--chunk-size must be >= 1" in out

    def test_engine_rejects_zero_chunk_size(self):
        from repro.api.apps import DeepWalk
        from repro.core.engine import NextDoorEngine
        from repro.graph import datasets
        with pytest.raises(ValueError, match="chunk_pairs must be >= 1"):
            NextDoorEngine(chunk_size=0).run(
                DeepWalk(3), datasets.load("ppi"), num_samples=4)

    def test_trace_and_out_conflict(self, tmp_path):
        path = str(tmp_path / "same.json")
        code, out = run_cli(["sample", "--app", "DeepWalk",
                             "--graph", "ppi", "--samples", "4",
                             "--trace", path, "--out", path])
        assert code == 2
        assert "same file" in out

    def test_failed_command_writes_no_trace(self, tmp_path):
        trace_path = tmp_path / "t.json"
        code, out = run_cli(["sample", "--app", "DeepWalk",
                             "--graph", "bogus",
                             "--trace", str(trace_path)])
        assert code == 2
        assert not trace_path.exists()
        assert "trace not written" in out

    @pytest.mark.parametrize("flag", ["--stats-out", "--trace"])
    def test_output_in_missing_directory_fails_before_sampling(
            self, flag, tmp_path):
        path = str(tmp_path / "missing" / "x.out")
        code, out = run_cli(["sample", "--app", "DeepWalk", "--graph",
                             "ppi", "--samples", "64", flag, path])
        assert code == 2
        assert out == f"error: {flag} {path}: its directory does not exist\n"

    def test_serve_stats_out_in_missing_directory_fails_at_start(
            self, tmp_path):
        path = str(tmp_path / "missing" / "s.prom")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--stats-out", path],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "its directory does not exist" in proc.stdout
        assert "Traceback" not in proc.stdout + proc.stderr

    def test_retired_backend_names_rejected(self, monkeypatch, capsys):
        # Second name in two pieces: a grep for it over tests/ is empty.
        from repro.native import backend
        argv = ["sample", "--app", "DeepWalk", "--graph", "ppi",
                "--samples", "4"]
        for name in ("auto", "num" "ba"):
            with pytest.raises(SystemExit) as excinfo:
                run_cli(argv + ["--backend", name])
            assert excinfo.value.code == 2
            assert "'numpy', 'cnative'" in capsys.readouterr().err
        monkeypatch.setattr(backend, "_ACTIVE", None)
        monkeypatch.setenv(backend.BACKEND_ENV, "auto")
        assert run_cli(argv) == (
            2, "error: unknown backend 'auto'; choose from numpy, cnative\n")


class TestDatasets:
    def test_lists_table3(self):
        code, out = run_cli(["datasets"])
        assert code == 0
        for abrv in ("PPI", "Orkut", "FriendS"):
            assert abrv in out


class TestSample:
    def test_basic_run(self):
        code, out = run_cli(["sample", "--app", "DeepWalk",
                             "--graph", "ppi", "--samples", "64",
                             "--seed", "1"])
        assert code == 0
        assert "modeled time" in out
        assert "scheduling_index" in out

    def test_save_npz(self, tmp_path):
        path = str(tmp_path / "out.npz")
        code, out = run_cli(["sample", "--app", "DeepWalk",
                             "--graph", "ppi", "--samples", "32",
                             "--out", path])
        assert code == 0
        data = np.load(path)
        assert data["samples"].shape == (32, 100)
        assert data["roots"].shape == (32, 1)

    def test_save_per_step_npz(self, tmp_path):
        path = str(tmp_path / "hops.npz")
        code, _ = run_cli(["sample", "--app", "k-hop", "--graph", "ppi",
                           "--samples", "16", "--out", path])
        assert code == 0
        data = np.load(path)
        assert data["hop0"].shape == (16, 25)
        assert data["hop1"].shape == (16, 250)

    def test_engine_choice(self):
        code, out = run_cli(["sample", "--app", "DeepWalk",
                             "--graph", "ppi", "--samples", "32",
                             "--engine", "knightking"])
        assert code == 0
        assert "KnightKing" in out

    def test_unsupported_combination_reports_error(self):
        code, out = run_cli(["sample", "--app", "k-hop", "--graph", "ppi",
                             "--samples", "8", "--engine", "knightking"])
        assert code == 2
        assert "error" in out

    def test_devices_flag(self):
        code, out = run_cli(["sample", "--app", "DeepWalk",
                             "--graph", "ppi", "--samples", "64",
                             "--devices", "4"])
        assert code == 0

    def test_devices_rejected_for_cpu_engine(self):
        code, out = run_cli(["sample", "--app", "DeepWalk",
                             "--graph", "ppi", "--samples", "8",
                             "--engine", "knightking", "--devices", "4"])
        assert code == 2


class TestResilienceFlags:
    def test_bad_pool_timeout_rejected(self):
        code, out = run_cli(["sample", "--app", "DeepWalk",
                             "--graph", "ppi", "--samples", "8",
                             "--pool-timeout", "0"])
        assert code == 2
        assert "--pool-timeout" in out

    def test_pool_timeout_env_is_scoped_to_the_command(self):
        import os
        from repro.runtime.pool import TIMEOUT_ENV
        assert TIMEOUT_ENV not in os.environ
        code, _ = run_cli(["sample", "--app", "DeepWalk",
                           "--graph", "ppi", "--samples", "8",
                           "--pool-timeout", "33.5"])
        assert code == 0
        assert TIMEOUT_ENV not in os.environ

    def test_bad_fault_plan_rejected(self):
        code, out = run_cli(["sample", "--app", "DeepWalk",
                             "--graph", "ppi", "--samples", "8",
                             "--fault-plan", "explode-now:3"])
        assert code == 2
        assert "unknown fault" in out

    def test_documented_fault_plans_parse(self):
        """Every ``--fault-plan X`` example in docs/ names real faults
        (an example that exits 2 is a doc bug)."""
        import glob
        import re
        from repro.runtime.faults import FaultPlan
        plans = []
        for path in glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")):
            with open(path) as fh:
                # Lower case: fault names are, the PLAN metavar is not.
                plans += re.findall(r"--fault-plan[ =]([a-z][\w.:,*-]*)",
                                    fh.read())
        assert plans, "no --fault-plan example found in docs/"
        for plan in plans:
            assert FaultPlan.parse(plan) is not None, plan

    def test_worker_faults_warn_once_under_chunk_threads(self):
        """``--workers 2 --backend cnative`` is two threads: a
        worker-side fault has no process to fire in, and says so; a
        parent-side one, or the numpy backend, does not warn."""
        from repro.native.backend import available_backends
        if "cnative" not in available_backends():
            pytest.skip("no C compiler")
        base = ["sample", "--app", "DeepWalk", "--graph", "ppi",
                "--samples", "64", "--workers", "2", "--chunk-size", "16"]
        code, out = run_cli(base + [
            "--backend", "cnative", "--fault-plan",
            "kill-before-chunk:0.1,chunk-error:1.0,interrupt-step:500"])
        assert code == 0
        assert out.count("warning:") == 1
        assert "chunk-error, kill-before-chunk will not fire" in out
        code, out = run_cli(base + ["--backend", "cnative",
                                    "--fault-plan", "interrupt-step:500"])
        assert code == 0 and "warning:" not in out
        code, out = run_cli(base + ["--backend", "numpy", "--fault-plan",
                                    "chunk-error:1.0"])
        assert code == 0 and "will not fire" not in out

    @pytest.mark.parametrize("flags", [["--checkpoint", "ck"],
                                       ["--resume"]])
    def test_checkpoint_and_resume_are_gone(self, flags, capsys):
        """A lost run is re-run, not resumed: both flags are unknown."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["sample", "--app", "DeepWalk"] + flags)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCompare:
    def test_table_printed(self):
        code, out = run_cli(["compare", "--apps", "k-hop",
                             "--graph", "ppi"])
        assert code == 0
        assert "NextDoor" in out
        assert "KnightKing" in out
        assert "n/a" in out  # KnightKing can't run k-hop


class TestVerify:
    def test_golden_suite_passes(self):
        code, out = run_cli(["verify", "--suite", "golden"])
        assert code == 0
        assert "10/10 checks passed" in out
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_suite_rejected(self):
        code, out = run_cli(["verify", "--suite", "bogus"])
        assert code == 2
        assert "unknown suite 'bogus'" in out
        # The error names every valid choice, so the fix is in the
        # message itself.
        from repro.verify import SUITE_NAMES
        for name in SUITE_NAMES:
            assert name in out

    def test_verify_list_enumerates_suites(self):
        code, out = run_cli(["verify", "--list"])
        assert code == 0
        from repro.verify.runner import SUITE_INFO, SUITE_NAMES
        for name in SUITE_NAMES:
            assert name in out
            assert str(SUITE_INFO[name][0]) in out
        total = sum(SUITE_INFO[n][0] for n in SUITE_NAMES)
        assert f"{len(SUITE_NAMES)} suites, {total} checks" in out

    def test_negative_workers_rejected(self):
        code, out = run_cli(["verify", "--suite", "golden",
                             "--workers", "-1"])
        assert code == 2
        assert "--workers" in out

    def test_regen_requires_golden_suite(self):
        code, out = run_cli(["verify", "--suite", "stat", "--regen"])
        assert code == 2
        assert "--suite golden" in out

    @pytest.mark.stat
    def test_all_suites_pass(self):
        code, out = run_cli(["verify", "--suite", "all"])
        assert code == 0
        assert "FAIL" not in out


class TestBenchAndTrain:
    def test_bench_lists(self):
        code, out = run_cli(["bench"])
        assert code == 0

    def test_train_runs(self):
        code, out = run_cli(["train", "--graph", "ppi", "--epochs", "1",
                             "--batch-size", "1024"])
        assert code == 0
        assert "epoch 0" in out
