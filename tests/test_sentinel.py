"""Perf-regression sentinel: comparison logic and the
`repro bench check` CLI front-end."""

import copy
import io
import json

import pytest

from repro.bench.sentinel import (
    DEFAULT_TOLERANCE,
    compare_autotune,
    compare_reports,
    compare_wallclock,
    format_verdict,
    load_report,
)
from repro.cli import main


def wallclock_report(**overrides):
    report = {
        "mode": "quick", "workers": 0, "backend": "numpy",
        "chunk_size": 4096, "platform": "test-host", "cpu_count": 8,
        "python": "3.11", "numpy": "1.26", "git_sha": "base-sha",
        "results": {
            "DeepWalk-100": {"NextDoor": {"seconds": 0.100},
                             "SP": {"seconds": 0.300}},
            "LADIES": {"NextDoor": {"seconds": 0.050}},
        },
    }
    report.update(overrides)
    return report


def autotune_report(**overrides):
    report = {
        "mode": "quick", "objective": "wallclock", "seed": 0,
        "git_sha": "base-sha",
        "results": {
            "DeepWalk/ppi": {"tuned_seconds": 0.20,
                             "default_seconds": 0.40},
            "k-hop/livej": {"tuned_seconds": 0.10,
                            "default_seconds": 0.12},
        },
    }
    report.update(overrides)
    return report


class TestWallclockCompare:
    def test_unmodified_rerun_passes(self):
        base = wallclock_report()
        verdict = compare_wallclock(base, copy.deepcopy(base))
        assert verdict["ok"] and verdict["comparable"]
        assert verdict["regressions"] == []
        assert len(verdict["cells"]) == 3

    def test_twenty_percent_slowdown_is_flagged(self):
        base = wallclock_report()
        slow = copy.deepcopy(base)
        slow["results"]["DeepWalk-100"]["NextDoor"]["seconds"] *= 1.20
        verdict = compare_wallclock(base, slow)
        assert not verdict["ok"]
        assert verdict["regressions"] == ["DeepWalk-100/NextDoor"]
        cell, = [c for c in verdict["cells"] if c["regressed"]]
        assert cell["ratio"] == pytest.approx(1.20)

    def test_slowdown_within_tolerance_passes(self):
        base = wallclock_report()
        slow = copy.deepcopy(base)
        slow["results"]["DeepWalk-100"]["NextDoor"]["seconds"] *= 1.10
        assert compare_wallclock(base, slow)["ok"]

    def test_speedup_never_flags(self):
        base = wallclock_report()
        fast = copy.deepcopy(base)
        for engines in fast["results"].values():
            for cell in engines.values():
                cell["seconds"] *= 0.5
        verdict = compare_wallclock(base, fast)
        assert verdict["ok"]
        assert all(c["ratio"] == pytest.approx(0.5)
                   for c in verdict["cells"])

    def test_noise_floor_skips_tiny_cells(self):
        base = wallclock_report()
        base["results"]["tiny"] = {"NextDoor": {"seconds": 0.001}}
        doubled = copy.deepcopy(base)
        doubled["results"]["tiny"]["NextDoor"]["seconds"] = 0.002
        verdict = compare_wallclock(base, doubled)
        assert verdict["ok"]
        cell, = [c for c in verdict["cells"]
                 if c["name"] == "tiny/NextDoor"]
        assert cell["skipped"] and not cell["regressed"]

    def test_custom_tolerance(self):
        base = wallclock_report()
        slow = copy.deepcopy(base)
        slow["results"]["LADIES"]["NextDoor"]["seconds"] *= 1.10
        assert not compare_wallclock(base, slow, tolerance=0.05)["ok"]

    def test_condition_mismatch_is_incomparable_not_failing(self):
        base = wallclock_report()
        for key, other in (("mode", "full"), ("workers", 4),
                           ("backend", "cnative"), ("chunk_size", 256)):
            verdict = compare_wallclock(base,
                                        wallclock_report(**{key: other}))
            assert not verdict["comparable"], key
            assert verdict["ok"], key  # incomparable != regression
            assert key in verdict["incomparable_reasons"][0]
            assert verdict["cells"] == []

    def test_host_mismatch_only_warns(self):
        base = wallclock_report()
        verdict = compare_wallclock(
            base, wallclock_report(platform="other-host", cpu_count=2))
        assert verdict["comparable"] and verdict["ok"]
        assert any("platform" in w for w in verdict["warnings"])
        assert any("cpu_count" in w for w in verdict["warnings"])

    def test_missing_baseline_cell_warns(self):
        base = wallclock_report()
        cur = copy.deepcopy(base)
        cur["results"]["new-workload"] = {"NextDoor": {"seconds": 1.0}}
        verdict = compare_wallclock(base, cur)
        assert verdict["ok"]
        assert any("new-workload" in w for w in verdict["warnings"])


class TestAutotuneCompare:
    def test_tuned_seconds_regression_flagged(self):
        base = autotune_report()
        slow = copy.deepcopy(base)
        slow["results"]["DeepWalk/ppi"]["tuned_seconds"] *= 1.30
        verdict = compare_autotune(base, slow)
        assert not verdict["ok"]
        assert verdict["regressions"] == ["DeepWalk/ppi"]

    def test_default_seconds_slowdown_only_warns(self):
        base = autotune_report()
        cur = copy.deepcopy(base)
        cur["results"]["DeepWalk/ppi"]["default_seconds"] *= 2.0
        verdict = compare_autotune(base, cur)
        assert verdict["ok"]
        assert any("default config slowed" in w
                   for w in verdict["warnings"])

    def test_objective_mismatch_incomparable(self):
        verdict = compare_autotune(autotune_report(),
                                   autotune_report(objective="model"))
        assert not verdict["comparable"] and verdict["ok"]


class TestDispatchAndIO:
    def test_kind_detection(self):
        assert compare_reports(wallclock_report(),
                               wallclock_report())["kind"] == "wallclock"
        assert compare_reports(autotune_report(),
                               autotune_report())["kind"] == "autotune"

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError, match="cannot compare"):
            compare_reports(autotune_report(), wallclock_report())

    def test_load_report_errors(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_report(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="unreadable"):
            load_report(str(bad))
        noresults = tmp_path / "nores.json"
        noresults.write_text("{}")
        with pytest.raises(ValueError, match="no 'results'"):
            load_report(str(noresults))

    def test_format_verdict_mentions_cells_and_outcome(self):
        base = wallclock_report()
        slow = copy.deepcopy(base)
        slow["results"]["LADIES"]["NextDoor"]["seconds"] *= 2
        text = format_verdict(compare_wallclock(base, slow))
        assert "SLOW" in text and "REGRESSION" in text
        assert "LADIES/NextDoor" in text
        incomparable = format_verdict(
            compare_wallclock(base, wallclock_report(mode="full")))
        assert "INCOMPARABLE" in incomparable

    def test_verdict_is_json_serializable(self):
        json.dumps(compare_wallclock(wallclock_report(),
                                     wallclock_report()))


class TestCli:
    def run_cli(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def _paths(self, tmp_path, slowdown=1.0):
        base = wallclock_report()
        cur = copy.deepcopy(base)
        for engines in cur["results"].values():
            for cell in engines.values():
                cell["seconds"] *= slowdown
        bp = tmp_path / "base.json"
        cp = tmp_path / "cur.json"
        bp.write_text(json.dumps(base))
        cp.write_text(json.dumps(cur))
        return str(bp), str(cp)

    def test_check_pass_exit_zero(self, tmp_path):
        bp, cp = self._paths(tmp_path)
        code, out = self.run_cli(["bench", "check", "--baseline", bp,
                                  "--current", cp])
        assert code == 0 and "PASS" in out

    def test_check_injected_slowdown_exit_one_and_verdict_json(
            self, tmp_path):
        bp, cp = self._paths(tmp_path, slowdown=1.25)
        vp = tmp_path / "verdict.json"
        code, out = self.run_cli(["bench", "check", "--baseline", bp,
                                  "--current", cp, "--out", str(vp)])
        assert code == 1 and "REGRESSION" in out
        verdict = json.loads(vp.read_text())
        assert not verdict["ok"] and len(verdict["regressions"]) == 3

    def test_check_incomparable_exit_zero(self, tmp_path):
        bp, _ = self._paths(tmp_path)
        pooled = wallclock_report(workers=4)
        cp = tmp_path / "pooled.json"
        cp.write_text(json.dumps(pooled))
        code, out = self.run_cli(["bench", "check", "--baseline", bp,
                                  "--current", str(cp)])
        assert code == 0 and "INCOMPARABLE" in out

    def test_check_requires_current_or_run(self, tmp_path):
        bp, cp = self._paths(tmp_path)
        code, out = self.run_cli(["bench", "check", "--baseline", bp])
        assert code == 2 and "--current" in out
        code, out = self.run_cli(["bench", "check", "--baseline", bp,
                                  "--current", cp, "--run", "quick"])
        assert code == 2 and "not both" in out

    def test_check_bad_tolerance(self, tmp_path):
        bp, cp = self._paths(tmp_path)
        code, out = self.run_cli(["bench", "check", "--baseline", bp,
                                  "--current", cp, "--tolerance", "0"])
        assert code == 2 and "--tolerance" in out

    def test_check_missing_baseline_exit_two(self, tmp_path):
        code, out = self.run_cli(
            ["bench", "check",
             "--baseline", str(tmp_path / "nope.json"),
             "--current", str(tmp_path / "nope2.json")])
        assert code == 2 and "not found" in out

    def test_default_tolerance_matches_constant(self):
        assert DEFAULT_TOLERANCE == 0.15

    def test_plain_bench_still_lists(self):
        code, out = self.run_cli(["bench"])
        assert code == 0
        assert "bench_wallclock.py" in out
