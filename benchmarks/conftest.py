"""Shared fixtures for the benchmark suite.

Every ``bench_*`` file regenerates one table or figure of the paper's
evaluation (see DESIGN.md's experiment index).  Tables are printed
(visible with ``pytest -s``) and archived under
``benchmarks/results/*.json``; pytest-benchmark times a representative
engine run for each experiment.

``--check-results`` turns the archive into a drift gate: each bench
compares its rows with the committed file (relative tolerance 1e-9,
the golden suite's tolerance on charges) and fails naming every cell
that moved, instead of writing the file.
"""

import json
import math
import os

import pytest

#: Relative tolerance of ``--check-results`` on numeric cells.
RTOL = 1e-9


def pytest_addoption(parser):
    parser.addoption(
        "--check-results", action="store_true", default=False,
        help="compare each bench's rows with the committed "
             "benchmarks/results file instead of writing it")


def pytest_configure(config):
    # Before the bench modules are collected, so the ``save_results``
    # they import is this one.
    if config.getoption("--check-results"):
        import repro.bench
        repro.bench.save_results = check_results
        repro.bench.report.save_results = check_results


def pytest_collect_file(parent, file_path):
    """Nothing custom — benchmarks are ordinary pytest files."""
    return None


def cells(data, prefix=""):
    """``{path: leaf}`` of a JSON document, paths as ``a/b/c``."""
    if isinstance(data, dict):
        return {path: leaf for key, value in data.items()
                for path, leaf in cells(value, f"{prefix}{key}/").items()}
    if isinstance(data, list):
        return {path: leaf for i, value in enumerate(data)
                for path, leaf in cells(value, f"{prefix}{i}/").items()}
    return {prefix.rstrip("/"): data}


def moved_cells(archived, fresh):
    """One line per cell that differs between ``archived`` and
    ``fresh`` beyond :data:`RTOL`, or exists in only one of them."""
    old, new = cells(archived), cells(fresh)
    moved = []
    for path in sorted(set(old) | set(new)):
        a, b = old.get(path, "<absent>"), new.get(path, "<absent>")
        if _number(a) and _number(b):
            same = math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)
        else:
            same = a == b
        if not same:
            moved.append(f"  {path}: {a!r} -> {b!r}")
    return moved


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_results(name, data):
    """``save_results`` under ``--check-results``: compare, not write."""
    from repro.bench.report import RESULTS_DIR
    path = os.path.normpath(os.path.join(RESULTS_DIR, f"{name}.json"))
    with open(path) as f:
        archived = json.load(f)
    # Through JSON, so the fresh rows compare as the archive stores them.
    fresh = json.loads(json.dumps(data, sort_keys=True, default=str))
    moved = moved_cells(archived, fresh)
    assert not moved, (f"{path}: {len(moved)} cell(s) moved from the "
                       "archived results:\n" + "\n".join(moved))
    return path


@pytest.fixture
def record_table(benchmark):
    """Attach a computed table's key numbers to the benchmark record."""

    def _record(**kwargs):
        for key, value in kwargs.items():
            benchmark.extra_info[key] = value

    return _record
