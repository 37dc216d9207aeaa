"""Suite registry and report formatting for ``repro verify``."""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench import format_table
from repro.verify.result import CheckResult

__all__ = ["SUITE_NAMES", "SUITE_INFO", "CheckResult", "format_report",
           "format_suite_list", "run_suites"]


def _stat(workers, seed):
    from repro.verify.analytic import run_statistical_checks
    return run_statistical_checks(workers=workers, seed=seed)


def _diff(workers, seed):
    from repro.verify.differential import run_differential_checks
    return run_differential_checks(workers=workers, seed=seed)


def _golden(workers, seed):
    from repro.verify.golden import run_golden_checks
    return run_golden_checks(workers=workers, seed=seed)


def _fuzz(workers, seed):
    from repro.verify.fuzz import run_fuzz_checks
    return run_fuzz_checks(workers=workers, seed=seed)


def _chaos(workers, seed):
    from repro.verify.chaos import run_chaos_checks
    return run_chaos_checks(workers=workers, seed=seed)


def _native(workers, seed):
    from repro.verify.native import run_native_checks
    return run_native_checks(workers=workers, seed=seed)


def _serve(workers, seed):
    from repro.verify.serve import run_serve_checks
    return run_serve_checks(workers=workers, seed=seed)


#: suite name -> runner(workers, seed) -> [CheckResult]
SUITES: Dict[str, Callable[[Optional[int], int], List[CheckResult]]] = {
    "stat": _stat,
    "diff": _diff,
    "golden": _golden,
    "fuzz": _fuzz,
    "chaos": _chaos,
    "native": _native,
    "serve": _serve,
}

SUITE_NAMES: Tuple[str, ...] = tuple(SUITES)

#: suite name -> (check count, one-line description) for
#: ``repro verify --list``.  Counts are declared, not discovered (a
#: listing must not run the suites); each suite's tests pin its count.
SUITE_INFO: Dict[str, Tuple[int, str]] = {
    "stat": (9, "analytic distribution checks per app family"),
    "diff": (20, "reference-vs-engine differential sweeps"),
    "golden": (10, "pinned golden sample fixtures"),
    "fuzz": (31, "randomized graph/app property fuzzing"),
    "chaos": (2, "a chunk error fails the run; a re-run is identical"),
    "native": (16, "compiled-backend sampling parity"),
    "serve": (7, "daemon-vs-direct identity, backpressure, drain"),
}


def format_suite_list() -> str:
    """The ``repro verify --list`` table: every registered suite, its
    declared check count, and what it covers."""
    rows = [[name, str(SUITE_INFO[name][0]), SUITE_INFO[name][1]]
            for name in SUITE_NAMES]
    total = sum(SUITE_INFO[name][0] for name in SUITE_NAMES)
    table = format_table(["suite", "checks", "covers"], rows)
    return (f"{table}\n{len(SUITE_NAMES)} suites, {total} checks "
            f"(run one with `repro verify --suite <name>`)")


def run_suites(names: Optional[Sequence[str]] = None,
               workers: Optional[int] = None,
               seed: int = 0) -> Tuple[List[CheckResult], bool]:
    """Run the named suites (all by default); returns the results and
    whether every check passed."""
    if names is None:
        names = SUITE_NAMES
    results: List[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(
                f"unknown suite {name!r}; choose from "
                f"{', '.join(SUITE_NAMES)}")
        results.extend(SUITES[name](workers, seed))
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
