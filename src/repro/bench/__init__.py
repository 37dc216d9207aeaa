"""Benchmark harness: regenerates every table and figure of Section 8.

:mod:`repro.bench.runner` holds the canonical experiment
configurations (the paper's application parameters and graph set);
:mod:`repro.bench.report` formats and archives the paper-shaped
tables that each ``benchmarks/bench_*.py`` file prints.
"""

from repro.bench.figures import bar_chart_svg, render_all
from repro.bench.paper_values import compare_results
from repro.bench.report import format_table, print_experiment, save_results
from repro.bench.runner import (
    GRAPHS_IN_MEMORY,
    paper_app,
    paper_graph,
    run_engine,
    walk_sample_count,
)

__all__ = [
    "GRAPHS_IN_MEMORY",
    "bar_chart_svg",
    "compare_results",
    "format_table",
    "paper_app",
    "paper_graph",
    "print_experiment",
    "render_all",
    "run_engine",
    "save_results",
    "walk_sample_count",
]
