"""Suite runner: selection, reporting, and the CheckResult record."""

import pytest

from repro.verify import SUITE_NAMES, format_report, run_suites
from repro.verify.result import CheckResult


class TestSuiteSelection:
    def test_known_suite_names(self):
        assert SUITE_NAMES == ("stat", "diff", "golden", "fuzz",
                               "chaos", "native", "serve")

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suites(["bogus"])

    def test_golden_suite_runs(self):
        results, ok = run_suites(["golden"])
        assert ok
        assert len(results) == 10
        assert all(r.suite == "golden" for r in results)


class TestFormatReport:
    def _results(self):
        return [
            CheckResult(name="a", suite="stat", family="walk",
                        passed=True, pvalue=0.42, detail="fine"),
            CheckResult(name="b", suite="diff", family="khop",
                        passed=False, detail="step0: 3 differing entries"),
        ]

    def test_counts_and_status(self):
        report = format_report(self._results())
        assert "1/2 checks passed" in report
        assert "PASS" in report and "FAIL" in report

    def test_failure_detail_shown(self):
        report = format_report(self._results())
        assert "differing entries" in report

    def test_pvalue_rendered(self):
        assert "0.42" in format_report(self._results())

    def test_all_passing(self):
        results, _ = run_suites(["golden"])
        report = format_report(results)
        assert "10/10 checks passed" in report
        assert "FAIL" not in report
