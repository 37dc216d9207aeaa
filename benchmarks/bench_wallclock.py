"""Wall-clock benchmark harness for the functional hot path.

Unlike the ``bench_fig*`` suite — which reports the *modeled* GPU
seconds of each engine — this harness measures how long the
reproduction itself takes to produce samples on the host.  The modeled
figures are insensitive to Python-level performance; this file is the
perf trajectory for the repo, so speedups and regressions of the shared
functional hot path (transit grouping, ragged gathers, sampling
kernels) are visible across PRs.

Workload mix (the representative profile from the paper's evaluation):

- ``DeepWalk-100``  — long biased random walk, one transit per sample;
  dominated by the per-step scheduling-index build and weighted draws.
- ``k-hop (25,10)`` — multiplicative individual sampling; dominated by
  the uniform-neighbor gather.
- ``LADIES``        — collective sampling with layer-adjacency
  recording; dominated by the combined-neighborhood gather and
  edge-membership probes.

Each workload runs on the LiveJ stand-in under every engine that shares
the functional stepper (NextDoor, SP, TP, Frontier, MessagePassing).
Results land in ``BENCH_wallclock.json`` at the repo root; when a
pre-optimisation baseline archive exists
(``benchmarks/results/wallclock_pre_pr.json``), per-cell speedups
against it are included — only when mode *and* worker count match, so
pooled runs are never scored against in-process baselines.

``--workers N`` runs the grid on the multicore sampling runtime
(samples are bitwise-identical either way).  The report also carries a
NextDoor workers=0 vs workers=4 comparison per workload, skipped with
an explanatory note on hosts with fewer than 4 cores, plus a traced
per-stage breakdown per workload (span totals from ``repro.obs``) and
the disabled-tracer overhead measurement that guards the <2%
instrumentation contract (``--no-stages`` skips both).

``--backend {numpy,cnative}`` runs the grid under a kernel backend
(recorded in the report metadata); a report taken with one backend
refuses to overwrite a trajectory file taken with another unless
``--force`` is passed, so BENCH_wallclock.json stays an
apples-to-apples series.  A numpy vs compiled per-stage speedup table
is appended when the host has a C toolchain (``--no-backend-compare``
skips it).

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py            # full
    PYTHONPATH=src python benchmarks/bench_wallclock.py --quick    # smoke
    PYTHONPATH=src python benchmarks/bench_wallclock.py \
        --backend cnative --force                                  # compiled
    PYTHONPATH=src python benchmarks/bench_wallclock.py \
        --output benchmarks/results/wallclock_pre_pr.json          # rebase

It is also collected by pytest as a single smoke test (quick mode).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
if os.path.join(REPO_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.api.apps import DeepWalk, KHop, LADIES  # noqa: E402
from repro.baselines import (  # noqa: E402
    FrontierEngine,
    MessagePassingEngine,
    SampleParallelEngine,
    VanillaTPEngine,
)
from repro.core.engine import NextDoorEngine  # noqa: E402
from repro.graph import datasets  # noqa: E402
from repro.native.backend import (  # noqa: E402
    BACKEND_NAMES,
    available_backends,
    backend_scope,
    resolve_backend_name,
)
from repro.obs import get_metrics, stats_summary, trace  # noqa: E402
from repro.runtime import DEFAULT_CHUNK_PAIRS  # noqa: E402

__all__ = ["run_wallclock", "run_stage_breakdown", "run_backend_comparison",
           "measure_tracer_overhead", "main"]

#: Default output path — the repo-root perf trajectory file.
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_wallclock.json")

#: Pre-optimisation numbers this PR's speedups are measured against.
BASELINE_PATH = os.path.join(REPO_ROOT, "benchmarks", "results",
                             "wallclock_pre_pr.json")

GRAPH = "livej"

#: (name, app factory, weighted graph?, samples full, samples quick)
WORKLOADS = (
    ("DeepWalk-100", lambda: DeepWalk(walk_length=100), True, 16000, 2000),
    ("k-hop-25x10", lambda: KHop(fanouts=(25, 10)), False, 8192, 1024),
    ("LADIES", lambda: LADIES(step_size=64, batch_size=64), False, 512, 128),
)

ENGINES = (
    ("NextDoor", NextDoorEngine),
    ("SP", SampleParallelEngine),
    ("TP", VanillaTPEngine),
    ("Frontier", FrontierEngine),
    ("MessagePassing", MessagePassingEngine),
)


def _time_run(engine, app_factory: Callable, graph, num_samples: int,
              repeats: int, seed: int = 7) -> Dict[str, float]:
    """Best-of-``repeats`` wall time of one engine run (plus one
    untimed warm-up that also warms lazy graph caches)."""
    engine.run(app_factory(), graph, num_samples=num_samples, seed=seed)
    best = float("inf")
    for _ in range(repeats):
        app = app_factory()
        t0 = time.perf_counter()
        result = engine.run(app, graph, num_samples=num_samples, seed=seed)
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
    return {
        "seconds": best,
        "samples": int(num_samples),
        "samples_per_sec": num_samples / best if best > 0 else float("inf"),
        "steps_run": int(result.steps_run),
    }


def run_wallclock(quick: bool = False, repeats: Optional[int] = None,
                  seed: int = 7, workers: int = 0,
                  chunk_size: Optional[int] = None,
                  backend: Optional[str] = None,
                  tuned: bool = False,
                  tune_db: Optional[str] = None) -> Dict:
    """Run the full workload × engine grid; returns the result dict.

    ``tuned=True`` consults the tuning database (``tune_db`` path or
    the resolver's default) per workload; the report's ``tune`` key
    records the active :class:`~repro.tune.TuneConfig` per workload —
    or ``"default"`` when nothing was applied — so a trajectory entry
    always says what configuration produced it.
    """
    repeats = repeats if repeats is not None else (1 if quick else 3)
    backend = resolve_backend_name(backend)
    db = None
    if tuned:
        from repro.tune import TuneDB
        db = TuneDB(tune_db)
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    tune_meta: Dict[str, object] = {}
    with backend_scope(backend) as active:
        for wl_name, app_factory, weighted, full_n, quick_n in WORKLOADS:
            num_samples = quick_n if quick else full_n
            graph = datasets.load(GRAPH, weighted=weighted)
            tune_cfg = (db.lookup(app_factory().name, graph)
                        if db is not None else None)
            tune_meta[wl_name] = (tune_cfg.to_dict()
                                  if tune_cfg is not None else "default")
            results[wl_name] = {}
            for eng_name, eng_cls in ENGINES:
                kwargs = {"workers": workers, "chunk_size": chunk_size}
                if tune_cfg is not None:
                    kwargs["tune"] = tune_cfg
                engine = eng_cls(**kwargs)
                cell = _time_run(engine, app_factory, graph, num_samples,
                                 repeats, seed=seed)
                results[wl_name][eng_name] = cell
                print(f"{wl_name:>14s} | {eng_name:<14s} "
                      f"{cell['seconds']*1e3:9.1f} ms  "
                      f"({cell['samples_per_sec']:,.0f} samples/s)")
    return {
        "graph": GRAPH,
        "mode": "quick" if quick else "full",
        "repeats": repeats,
        "seed": seed,
        "workers": int(workers),
        "chunk_size": int(chunk_size or DEFAULT_CHUNK_PAIRS),
        "backend": active.name,
        "tune": tune_meta or "default",
        "tune_db": db.path if db is not None else None,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        # Post-run metric snapshot (labeled families expand to their
        # series; histograms carry percentiles + cumulative buckets) so
        # a trajectory entry records *how* its numbers were produced —
        # e.g. per-stage engine.stage_seconds percentiles per backend.
        "metrics": get_metrics().snapshot(),
        "results": results,
    }


def _git_sha() -> Optional[str]:
    """HEAD commit of the repo this harness ran from (None outside a
    checkout) — makes BENCH_wallclock.json entries comparable across
    the perf trajectory."""
    import subprocess
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def run_stage_breakdown(quick: bool = False, seed: int = 7,
                        workers: int = 0,
                        backend: Optional[str] = None) -> Dict:
    """Per-stage wall-clock attribution of one traced NextDoor run per
    workload (span totals by name, in seconds) — the host-side analogue
    of the paper's Table 4 / Figure 8 stage attribution."""
    breakdown: Dict[str, Dict] = {}
    with backend_scope(resolve_backend_name(backend)):
        for wl_name, app_factory, weighted, full_n, quick_n in WORKLOADS:
            num_samples = quick_n if quick else full_n
            graph = datasets.load(GRAPH, weighted=weighted)
            engine = NextDoorEngine(workers=workers)
            engine.run(app_factory(), graph, num_samples=num_samples,
                       seed=seed)  # warm-up, untraced
            tracer = trace.enable()
            try:
                engine.run(app_factory(), graph, num_samples=num_samples,
                           seed=seed)
                spans = stats_summary(tracer=tracer)["spans"]
            finally:
                trace.disable()
            breakdown[wl_name] = {
                name: agg["total_s"] for name, agg in spans.items()}
            top = sorted(((s, n) for n, s in breakdown[wl_name].items()
                          if n not in ("run", "step")), reverse=True)[:3]
            print(f"{wl_name:>14s} | stages  "
                  + "  ".join(f"{n}={s * 1e3:.1f}ms" for s, n in top))
    return breakdown


#: Kernel-bearing spans scored in the backend comparison (charge_model
#: is modeled-accounting bookkeeping, identical across backends).
_COMPARED_STAGES = ("scheduling_index", "individual_kernels",
                    "collective_kernels")


def run_backend_comparison(quick: bool = False, seed: int = 7) -> Dict:
    """numpy vs compiled-backend table: total + per-stage speedups per
    workload, from traced in-process NextDoor runs (samples are bitwise
    identical across backends, so only wall-clock differs)."""
    compiled = "cnative"
    if compiled not in available_backends():
        note = "no C toolchain on this host, so no compiled backend"
        print(f"backend comparison skipped: {note}")
        return {"skipped": note}
    per_backend = {
        name: run_stage_breakdown(quick=quick, seed=seed, backend=name)
        for name in ("numpy", compiled)}
    comparison: Dict[str, Dict] = {}
    for wl_name, _, _, _, _ in WORKLOADS:
        base = per_backend["numpy"][wl_name]
        comp = per_backend[compiled][wl_name]
        cell = {
            "numpy_run_seconds": base.get("run", 0.0),
            f"{compiled}_run_seconds": comp.get("run", 0.0),
            "run_speedup": (base.get("run", 0.0) / comp["run"]
                            if comp.get("run") else float("nan")),
            "stages": {},
        }
        for stage in _COMPARED_STAGES:
            b, c = base.get(stage), comp.get(stage)
            if b is None or not c:
                continue
            cell["stages"][stage] = {
                "numpy_seconds": b,
                f"{compiled}_seconds": c,
                "speedup": b / c,
            }
        comparison[wl_name] = cell
        stages = "  ".join(
            f"{st}={v['speedup']:.2f}x"
            for st, v in cell["stages"].items())
        print(f"{wl_name:>14s} | {compiled} vs numpy  "
              f"run={cell['run_speedup']:.2f}x  {stages}")
    return {"compiled_backend": compiled, "results": comparison}


def measure_tracer_overhead() -> Dict[str, float]:
    """Cost of the instrumentation when tracing is disabled (the
    default): nanoseconds per no-op span.  Guards the <2% overhead
    contract — at ~10 spans per step this must stay far below the
    per-step numpy work."""
    assert not trace.tracing_enabled()
    n = 200_000
    t0 = time.perf_counter()
    for i in range(n):
        with trace.span("overhead_probe", step=i):
            pass
    per_span_ns = (time.perf_counter() - t0) / n * 1e9
    print(f"tracer overhead: {per_span_ns:.0f} ns per disabled span")
    return {"noop_span_ns": per_span_ns, "spans_measured": n}


def run_multicore(quick: bool = False, seed: int = 7,
                  workers: int = 4) -> Dict:
    """NextDoor-engine workers=0 vs workers=N comparison per workload.

    Skips (with an explanatory note in the report) on hosts with fewer
    cores than ``workers`` — a worker pool cannot beat the in-process
    path without cores to spread the chunks over."""
    cores = os.cpu_count() or 1
    if cores < workers:
        note = (f"host has {cores} CPU core(s) < {workers} workers; "
                "multicore speedup not measurable here — samples are "
                "identical either way, so only wall-clock is affected")
        print(f"multicore comparison skipped: {note}")
        return {"skipped": note, "workers": workers, "cpu_count": cores}
    comparison: Dict[str, Dict[str, float]] = {}
    for wl_name, app_factory, weighted, full_n, quick_n in WORKLOADS:
        num_samples = quick_n if quick else full_n
        graph = datasets.load(GRAPH, weighted=weighted)
        serial = _time_run(NextDoorEngine(workers=0), app_factory, graph,
                           num_samples, repeats=3, seed=seed)
        pooled = _time_run(NextDoorEngine(workers=workers), app_factory,
                           graph, num_samples, repeats=3, seed=seed)
        comparison[wl_name] = {
            "workers0_seconds": serial["seconds"],
            f"workers{workers}_seconds": pooled["seconds"],
            "speedup": (serial["seconds"] / pooled["seconds"]
                        if pooled["seconds"] > 0 else float("inf")),
        }
        print(f"{wl_name:>14s} | multicore x{workers}   "
              f"speedup {comparison[wl_name]['speedup']:5.2f}x")
    return {"workers": workers, "cpu_count": cores,
            "results": comparison}


def _attach_speedups(report: Dict, baseline_path: str) -> None:
    """Merge pre-PR numbers + speedup ratios into ``report`` when a
    comparable (same mode, same worker count) baseline archive exists."""
    if not os.path.exists(baseline_path):
        return
    with open(baseline_path) as f:
        baseline = json.load(f)
    if baseline.get("mode") != report["mode"]:
        return  # quick runs aren't comparable to full baselines
    if baseline.get("workers", 0) != report.get("workers", 0):
        return  # pooled runs aren't comparable to in-process baselines
    if baseline.get("backend", "numpy") != report.get("backend", "numpy"):
        return  # cross-backend ratios belong in backend_comparison
    speedups: Dict[str, Dict[str, float]] = {}
    for wl, engines in report["results"].items():
        base_wl = baseline.get("results", {}).get(wl, {})
        for eng, cell in engines.items():
            before = base_wl.get(eng, {}).get("seconds")
            if before and cell["seconds"] > 0:
                speedups.setdefault(wl, {})[eng] = before / cell["seconds"]
    report["baseline"] = {
        "path": os.path.relpath(baseline_path, REPO_ROOT),
        "results": baseline.get("results", {}),
    }
    report["speedup_vs_baseline"] = speedups
    for wl, engines in speedups.items():
        for eng, ratio in engines.items():
            print(f"{wl:>14s} | {eng:<14s} speedup {ratio:5.2f}x")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sample counts, one repeat (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per cell (default 3, quick 1)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"output JSON path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--baseline", default=BASELINE_PATH,
                        help="pre-PR baseline JSON to compute speedups "
                             "against (skipped if missing)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=0,
                        help="sampling worker processes for the main grid "
                             "(default 0 = in-process; samples are "
                             "identical either way)")
    parser.add_argument("--chunk-size", type=int, default=None,
                        help="RNG-plan chunk size in transit pairs "
                             f"(default {DEFAULT_CHUNK_PAIRS})")
    parser.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                        help="kernel backend for the grid (overrides "
                             "$REPRO_BACKEND; default numpy); recorded "
                             "in the report metadata")
    parser.add_argument("--force", action="store_true",
                        help="allow overwriting an output file recorded "
                             "with a different kernel backend")
    parser.add_argument("--tuned", action="store_true",
                        help="consult the tuning database per workload "
                             "(see `repro tune`); the report records "
                             "the active config per workload")
    parser.add_argument("--tune-db", default=None, metavar="PATH",
                        help="tuning database file (default: "
                             "$REPRO_TUNE_DB or ./tune.json)")
    parser.add_argument("--no-multicore", action="store_true",
                        help="skip the workers=0 vs workers=4 comparison")
    parser.add_argument("--no-stages", action="store_true",
                        help="skip the traced per-stage breakdown")
    parser.add_argument("--no-backend-compare", action="store_true",
                        help="skip the numpy vs compiled-backend table")
    args = parser.parse_args(argv)

    out_dir = os.path.dirname(os.path.abspath(args.output))
    if not os.path.isdir(out_dir):
        parser.error(f"output directory does not exist: {out_dir}")

    resolved = resolve_backend_name(args.backend)
    prior_backend = _recorded_backend(args.output)
    if (prior_backend is not None and prior_backend != resolved
            and not args.force):
        print(f"error: {args.output} was recorded with backend "
              f"{prior_backend!r}, this run would use {resolved!r}; "
              f"the perf trajectory would silently mix backends. "
              f"Pass --force to overwrite, or --output elsewhere.",
              file=sys.stderr)
        return 2

    report = run_wallclock(quick=args.quick, repeats=args.repeats,
                           seed=args.seed, workers=args.workers,
                           chunk_size=args.chunk_size,
                           backend=args.backend, tuned=args.tuned,
                           tune_db=args.tune_db)
    if not args.no_multicore:
        report["multicore"] = run_multicore(quick=args.quick,
                                            seed=args.seed)
    if not args.no_stages:
        report["stage_breakdown"] = run_stage_breakdown(
            quick=args.quick, seed=args.seed, workers=args.workers,
            backend=args.backend)
        report["tracer_overhead"] = measure_tracer_overhead()
    if not args.no_backend_compare:
        report["backend_comparison"] = run_backend_comparison(
            quick=args.quick, seed=args.seed)
    if os.path.abspath(args.output) != os.path.abspath(args.baseline):
        _attach_speedups(report, args.baseline)
    with open(args.output, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.output}")
    return 0


def _recorded_backend(path: str) -> Optional[str]:
    """The kernel backend an existing report at ``path`` was taken
    with (``"numpy"`` for pre-backend reports), or ``None`` when no
    readable report exists there."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            return json.load(f).get("backend", "numpy")
    except (OSError, ValueError):
        return None


def test_wallclock_smoke(tmp_path):
    """Pytest smoke: the harness runs end-to-end in quick mode."""
    report = run_wallclock(quick=True, repeats=1)
    for wl, engines in report["results"].items():
        for eng, cell in engines.items():
            assert cell["seconds"] > 0, (wl, eng)
            assert cell["steps_run"] > 0, (wl, eng)
    assert report["numpy"] == np.__version__
    assert report["platform"]
    assert report["backend"] == "numpy"
    # The report embeds a post-run metric snapshot (and it must be
    # JSON-serializable — the json.dumps below covers that).
    assert "engine.stage_seconds" in report["metrics"]
    # Untuned runs record "default" as the active config per workload.
    assert all(v == "default" for v in report["tune"].values())
    report["stage_breakdown"] = run_stage_breakdown(quick=True)
    for wl, spans in report["stage_breakdown"].items():
        assert spans.get("run", 0) > 0, wl
        assert "scheduling_index" in spans, wl
    out = tmp_path / "BENCH_wallclock.json"
    out.write_text(json.dumps(report))
    assert json.loads(out.read_text())["results"]


def test_backend_overwrite_guard(tmp_path, capsys):
    """A trajectory file is never silently overwritten by a run taken
    with a different kernel backend."""
    out = tmp_path / "BENCH_wallclock.json"
    out.write_text(json.dumps({"backend": "cnative", "results": {}}))
    code = main(["--quick", "--repeats", "1", "--no-multicore",
                 "--no-stages", "--no-backend-compare",
                 "--backend", "numpy", "--output", str(out)])
    assert code == 2
    assert "recorded with backend 'cnative'" in capsys.readouterr().err
    assert json.loads(out.read_text())["results"] == {}  # untouched
    code = main(["--quick", "--repeats", "1", "--no-multicore",
                 "--no-stages", "--no-backend-compare",
                 "--backend", "numpy", "--output", str(out), "--force"])
    assert code == 0
    assert json.loads(out.read_text())["backend"] == "numpy"
    # Legacy reports (no backend key) count as numpy: no guard trip.
    out.write_text(json.dumps({"results": {}}))
    code = main(["--quick", "--repeats", "1", "--no-multicore",
                 "--no-stages", "--no-backend-compare",
                 "--output", str(out)])
    assert code == 0


if __name__ == "__main__":
    raise SystemExit(main())
