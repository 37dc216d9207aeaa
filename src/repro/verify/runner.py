"""Suite registry and report formatting for ``repro verify``."""

from __future__ import annotations

import importlib
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench import format_table
from repro.verify.result import CheckResult

__all__ = ["SUITE_NAMES", "CheckResult", "check_count", "format_report",
           "format_suite_list", "run_suites"]

#: suite name -> (module, runner(workers, seed), check count read from
#: the module's own case tables).  ``--list`` describes a suite by the
#: first line of its module's docstring.
SUITES: Dict[str, Tuple] = {
    "stat": ("analytic", "run_statistical_checks",
             lambda m: len(m.STAT_CHECKS)),
    "diff": ("differential", "run_differential_checks",
             lambda m: len(m.DIFF_GRAPHS) * len(m.DIFF_APPS)),
    "golden": ("golden", "run_golden_checks",
               lambda m: len(m.GOLDEN_CASES)),
    "fuzz": ("fuzz", "run_fuzz_checks",
             lambda m: len(m.degenerate_graphs()) + m.FUZZ_CASES),
    "identity": ("identity", "run_identity_checks",
                 lambda m: m.check_count()),
}

SUITE_NAMES: Tuple[str, ...] = tuple(SUITES)


def _module(name: str):
    return importlib.import_module(f"repro.verify.{SUITES[name][0]}")


def check_count(name: str) -> int:
    """How many checks suite ``name`` makes, from its case tables (no
    sampling)."""
    return SUITES[name][2](_module(name))


def format_suite_list() -> str:
    """The ``repro verify --list`` table: every registered suite, its
    check count, and what it covers."""
    counts = {name: check_count(name) for name in SUITE_NAMES}
    rows = [[name, str(counts[name]),
             _module(name).__doc__.splitlines()[0].replace("``", "")]
            for name in SUITE_NAMES]
    table = format_table(["suite", "checks", "covers"], rows)
    return (f"{table}\n{len(SUITE_NAMES)} suites, "
            f"{sum(counts.values())} checks "
            f"(run one with `repro verify --suite <name>`)")


def run_suites(names: Optional[Sequence[str]] = None,
               workers: Optional[int] = None,
               seed: int = 0) -> Tuple[List[CheckResult], bool]:
    """Run the named suites (all by default); returns the results and
    whether every check passed.  A suite that ran another number of
    checks than its case tables hold adds one failed check."""
    if names is None:
        names = SUITE_NAMES
    results: List[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(
                f"unknown suite {name!r}; choose from "
                f"{', '.join(SUITE_NAMES)}")
        ran = getattr(_module(name), SUITES[name][1])(workers, seed)
        declared = check_count(name)
        results.extend(ran)
        if len(ran) != declared:
            results.append(CheckResult(
                name="declared_check_count", suite=name, family="registry",
                passed=False, statistic=len(ran),
                detail=f"ran {len(ran)} checks, its case tables hold "
                       f"{declared}"))
    return results, all(r.passed for r in results)


def format_report(results: Sequence[CheckResult]) -> str:
    """One table row per check, plus failure details and a summary
    line."""
    rows = []
    for r in results:
        p = "-" if math.isnan(r.pvalue) else f"{r.pvalue:.4g}"
        rows.append([r.suite, r.family, r.name, p, r.status])
    lines = [format_table(["suite", "family", "check", "p-value",
                           "status"], rows)]
    failures = [r for r in results if not r.passed]
    for r in failures:
        lines.append(f"FAIL {r.suite}/{r.name}: {r.detail or '(no detail)'}")
    lines.append(f"{len(results) - len(failures)}/{len(results)} checks "
                 f"passed")
    return "\n".join(lines)
