"""Command-line interface.

::

    python -m repro datasets
    python -m repro sample --app DeepWalk --graph livej --samples 4096 \
        --seed 7 --out walks.npz
    python -m repro compare --apps DeepWalk k-hop --graph orkut
    python -m repro bench --list

Every subcommand is a thin wrapper over the library; anything the CLI
prints can be computed programmatically from :mod:`repro`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from repro.baselines import (
    FrontierEngine,
    KnightKingEngine,
    MessagePassingEngine,
    ReferenceSamplerEngine,
    SampleParallelEngine,
    VanillaTPEngine,
)
from repro.bench import format_table
from repro.bench.runner import (
    APP_FACTORIES,
    paper_app,
    paper_graph,
    run_engines,
    walk_sample_count,
)
from repro.core.engine import NextDoorEngine
from repro.graph import datasets
from repro.obs import (get_metrics, openmetrics_text, trace,
                       write_chrome_trace, write_openmetrics)
from repro.runtime.context import resolve_workers
from repro.verify import runner as verify_runner

__all__ = ["main", "build_parser"]

ENGINES = {
    "nextdoor": NextDoorEngine,
    "sp": SampleParallelEngine,
    "tp": VanillaTPEngine,
    "knightking": KnightKingEngine,
    "reference": ReferenceSamplerEngine,
    "gunrock": FrontierEngine,
    "tigr": MessagePassingEngine,
}


def _add_backend_flag(p: argparse.ArgumentParser) -> None:
    """Kernel-backend selection shared by sample|compare|verify.

    Precedence (docs/CLI.md): the flag wins over ``$REPRO_BACKEND``,
    which wins over the ``numpy`` default.  Samples are
    bitwise-identical across backends; only speed changes.
    """
    from repro.native.backend import BACKEND_NAMES
    p.add_argument("--backend", default=None, choices=BACKEND_NAMES,
                   help="kernel backend: numpy (vectorised, default) "
                        "or cnative (embedded C via the host "
                        "compiler); "
                        "$REPRO_BACKEND sets the default — samples are "
                        "bitwise-identical on every backend")


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    """Tracing/metrics flags shared by sample|compare|bench."""
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="record wall-clock spans and write a Chrome "
                        "trace_event JSON (open in chrome://tracing or "
                        "Perfetto); $REPRO_TRACE=PATH does the same")
    p.add_argument("--stats", action="store_true",
                   help="print the metrics registry as OpenMetrics text "
                        "after the command")
    p.add_argument("--stats-out", metavar="PATH", default=None,
                   help="write the post-run metrics snapshot to PATH as "
                        "OpenMetrics text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NextDoor reproduction: transit-parallel graph "
                    "sampling (EuroSys '21)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list the Table-3 dataset stand-ins")

    p = sub.add_parser("sample", help="run one sampling application")
    p.add_argument("--app", required=True, choices=sorted(APP_FACTORIES))
    p.add_argument("--graph", default="ppi",
                   help="dataset name (see `repro datasets`) or a path "
                        "to an edge-list / .npz graph file")
    p.add_argument("--engine", default="nextdoor",
                   choices=sorted(ENGINES))
    p.add_argument("--samples", type=int, default=None,
                   help="number of samples (default: paper-style count)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--devices", type=int, default=1,
                   help="modeled GPUs (NextDoor-family engines only)")
    p.add_argument("--workers", type=int, default=None,
                   help="sampling workers: threads of this process "
                        "(default 0 = the calling thread only; "
                        "$REPRO_WORKERS overrides the default; samples "
                        "are identical either way)")
    p.add_argument("--fault-plan", default=None, metavar="PLAN",
                   help="deterministic fault injection, e.g. "
                        "'chunk-error:0.3' (chunk 3 of step 0; "
                        "'chunk-error:2.0' stops the run at step 2; see "
                        "docs/RESILIENCE.md); the run fails with exit "
                        "code 1")
    p.add_argument("--out", default=None,
                   help="save samples to this .npz file")
    _add_backend_flag(p)
    _add_obs_flags(p)

    p = sub.add_parser("compare",
                       help="modeled speedups of NextDoor over baselines")
    p.add_argument("--apps", nargs="+", default=["DeepWalk", "k-hop"],
                   choices=sorted(APP_FACTORIES))
    p.add_argument("--graph", default="livej",
                   choices=sorted(datasets.SPECS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="sampling threads for every engine "
                        "(default 0 = the calling thread only)")
    _add_backend_flag(p)
    _add_obs_flags(p)

    p = sub.add_parser("bench",
                       help="list the paper-experiment benchmarks")
    p.add_argument("action", nargs="?", default="list", choices=["list"],
                   help="list (default): show benchmark files")
    _add_obs_flags(p)

    p = sub.add_parser("report",
                       help="paper-vs-measured summary from archived "
                            "results")
    p.add_argument("--results", default=None)

    p = sub.add_parser("figures",
                       help="render archived benchmark results as SVG")
    p.add_argument("--results", default=None,
                   help="results dir (default: benchmarks/results)")
    p.add_argument("--out", default=None,
                   help="output dir (default: benchmarks/figures)")

    p = sub.add_parser("verify",
                       help="run the verification suites (statistical, "
                            "differential, golden, fuzz, chaos, "
                            "native-backend parity, serving)")
    p.add_argument("--suite", default="all", metavar="NAME",
                   help="which suite to run (default: all; see --list)")
    p.add_argument("--list", action="store_true", dest="list_suites",
                   help="list the registered suites and their check "
                        "counts, then exit")
    p.add_argument("--workers", type=int, default=None,
                   help="sampling threads (default 0 = the calling "
                        "thread only; samples are identical either way)")
    p.add_argument("--seed", type=int, default=0,
                   help="sweep seed for the diff/fuzz suites (stat and "
                        "golden checks pin their own seeds)")
    p.add_argument("--regen", action="store_true",
                   help="regenerate the golden fixtures from the "
                        "current implementation instead of checking "
                        "them (use with --suite golden)")
    _add_backend_flag(p)

    p = sub.add_parser("serve",
                       help="run the sampling daemon (admission "
                            "control, deadlines, backpressure; "
                            "docs/SERVING.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8711,
                   help="listen port (0 = pick an ephemeral port; "
                        "default 8711)")
    p.add_argument("--queue-capacity", type=int, default=16,
                   help="bounded waiting room; submits beyond it are "
                        "rejected with Retry-After (default 16)")
    p.add_argument("--executors", type=int, default=2,
                   help="concurrent engine runs (default 2)")
    p.add_argument("--workers", type=int, default=0,
                   help="sampling threads per run (default 0 = the "
                        "run's own thread only; samples are identical "
                        "either way)")
    p.add_argument("--default-deadline-ms", type=float, default=None,
                   help="deadline applied to requests that carry none "
                        "(default: unbounded)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="SIGTERM grace for in-flight requests "
                        "(default 30)")
    p.add_argument("--stats-out", default=None, metavar="PATH",
                   help="flush an OpenMetrics snapshot here after the "
                        "drain")
    p.add_argument("--test-hooks", action="store_true",
                   help="accept per-request test hooks (fault_plan, "
                        "cancel_after_checks, sleep_before_ms) — "
                        "verify/CI only, never in production")

    p = sub.add_parser("client",
                       help="send one sampling request to a running "
                            "daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8711)
    p.add_argument("--app", default="DeepWalk")
    p.add_argument("--graph", default="ppi",
                   help="dataset stand-in name or edge-list/.npz path "
                        "readable by the daemon")
    p.add_argument("--samples", type=int, default=None,
                   help="root count (default: the app's paper-scale "
                        "count for the graph)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tenant", default="default",
                   help="tenant label for the daemon's metrics")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request deadline; the daemon cancels the "
                        "run once it passes")
    p.add_argument("--retries", type=int, default=4,
                   help="max attempts on 429/503 backpressure "
                        "(default 4)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="save the returned samples as .npz")
    p.add_argument("--no-samples", action="store_true",
                   help="ask only for the digest and timings, not the "
                        "sample arrays")
    p.add_argument("--health", action="store_true",
                   help="print the daemon's /healthz and exit")

    return parser


def _cmd_datasets(args, out) -> int:
    rows = []
    for name in datasets.names():
        paper = datasets.paper_row(name)
        spec = datasets.SPECS[name]
        rows.append([name, paper["abrv"], paper["nodes"], paper["edges"],
                     paper["avg_degree"], spec.nodes,
                     "no" if not spec.fits_in_gpu else "yes"])
    print(format_table(
        ["key", "abrv", "paper nodes", "paper edges", "avg deg",
         "stand-in nodes", "fits 16GB"], rows), file=out)
    return 0


def _workers_error(workers: Optional[int]) -> Optional[str]:
    """Readable message for an invalid --workers value (or, without
    one, an invalid ``$REPRO_WORKERS``), else None."""
    if workers is not None and workers < 0:
        return (f"--workers must be >= 0, got {workers} "
                "(0 = the calling thread only, N = N sampling threads)")
    try:
        resolve_workers(workers)
    except ValueError as exc:
        return str(exc)
    return None


def _run_error(args) -> Optional[str]:
    """Readable message for an invalid --seed or --workers of a
    sampling command, else None."""
    if args.seed < 0:
        return f"--seed must be >= 0, got {args.seed}"
    return _workers_error(args.workers)


def _resolve_graph(args, out):
    """A dataset stand-in by name, or a graph loaded from a file path.

    Prints a readable error and returns None when neither resolves.
    """
    name = args.graph
    if name in datasets.SPECS:
        return paper_graph(name, args.app, seed=args.seed)
    looks_like_path = os.sep in name or name.endswith(
        (".txt", ".el", ".edges", ".npz"))
    if os.path.exists(name):
        from repro.graph import io as graph_io
        try:
            if name.endswith(".npz"):
                return graph_io.load_npz(name)
            return graph_io.load_edge_list(name)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: could not load graph file {name}: {exc}",
                  file=out)
            return None
    if looks_like_path:
        print(f"error: graph file not found: {name}", file=out)
        return None
    print(f"error: unknown graph {name!r} — pick a dataset "
          f"({', '.join(sorted(datasets.SPECS))}) or pass an "
          "edge-list/.npz path", file=out)
    return None


def _cmd_sample(args, out) -> int:
    err = _run_error(args)
    if err is None and args.samples is not None and args.samples < 1:
        err = f"--samples must be >= 1, got {args.samples}"
    if err:
        print(f"error: {err}", file=out)
        return 2
    if args.trace and args.out and \
            os.path.abspath(args.trace) == os.path.abspath(args.out):
        print(f"error: --trace and --out point at the same file "
              f"({args.out}); the trace would overwrite the samples",
              file=out)
        return 2
    from repro.runtime.faults import FaultInjected, FaultPlan
    try:
        fault_plan = FaultPlan.parse(args.fault_plan)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    app = paper_app(args.app)
    graph = _resolve_graph(args, out)
    if graph is None:
        return 2
    num_samples = args.samples
    if num_samples is None:
        num_samples = walk_sample_count(graph, args.app)
    engine = ENGINES[args.engine](workers=args.workers)
    engine.fault_plan = fault_plan
    try:
        result = engine.run(app, graph, num_samples=num_samples,
                            seed=args.seed, num_devices=args.devices)
    except FaultInjected as exc:
        print(f"error: run stopped by injected fault: {exc}", file=out)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    print(f"app={args.app} graph={graph.name} engine={result.engine} "
          f"samples={num_samples}", file=out)
    print(f"modeled time : {result.seconds:.6f} s "
          f"({result.samples_per_second:,.0f} samples/s)", file=out)
    for phase, secs in sorted(result.breakdown.items()):
        print(f"  {phase:18s} {secs:.6f} s", file=out)
    if args.out:
        result.save(args.out)
        print(f"saved samples to {args.out}", file=out)
    return 0


def _cmd_compare(args, out) -> int:
    err = _run_error(args)
    if err:
        print(f"error: {err}", file=out)
        return 2
    engines = [cls(workers=args.workers) for cls in ENGINES.values()]
    rows = []
    for app_name in args.apps:
        nd, *others = run_engines(engines, app_name, args.graph,
                                  seed=args.seed)
        rows.append([app_name, f"{nd.seconds * 1e3:.3f} ms"] + [
            "n/a" if r is None else f"{r.seconds / nd.seconds:.1f}x"
            for r in others])
    header = ["app", "NextDoor", "SP", "TP", "KnightKing", "GNN-sampler",
              "Gunrock", "Tigr"]
    print(format_table(header, rows), file=out)
    print("(columns right of NextDoor: how much slower than NextDoor)",
          file=out)
    return 0


def _cmd_bench(args, out) -> int:
    import glob
    import os
    bench_dir = os.path.join(os.path.dirname(__file__), "..", "..",
                             "benchmarks")
    names = sorted(os.path.basename(p)
                   for p in glob.glob(os.path.join(bench_dir, "bench_*.py")))
    if not names:
        print("benchmarks/ not found next to the package; run from the "
              "repository root with: pytest benchmarks/ --benchmark-only",
              file=out)
        return 0
    print("paper-experiment benchmarks (run with "
          "`pytest benchmarks/ --benchmark-only -s`):", file=out)
    for name in names:
        print(f"  {name}", file=out)
    return 0


def _cmd_report(args, out) -> int:
    import glob
    import json
    import os
    from repro.bench.paper_values import compare_results
    from repro.bench.report import RESULTS_DIR
    results_dir = args.results or os.path.normpath(RESULTS_DIR)
    results = {}
    for path in glob.glob(os.path.join(results_dir, "*.json")):
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path) as f:
            results[name] = json.load(f)
    if not results:
        print(f"no results under {results_dir}; run "
              "`pytest benchmarks/ --benchmark-only` first", file=out)
        return 1
    report = compare_results(results)
    rows = [[name, cell["paper"], cell["measured"], cell["grade"]]
            for name, cell in sorted(report.items())]
    print(format_table(["experiment", "paper", "measured", "grade"],
                       rows), file=out)
    return 0


def _cmd_figures(args, out) -> int:
    import os
    from repro.bench.figures import render_all
    from repro.bench.report import RESULTS_DIR
    results = args.results or os.path.normpath(RESULTS_DIR)
    out_dir = args.out or os.path.join(os.path.dirname(results), "figures")
    written = render_all(results, out_dir)
    if not written:
        print(f"no results found under {results}; run "
              "`pytest benchmarks/ --benchmark-only` first", file=out)
        return 1
    for path in written:
        print(f"wrote {path}", file=out)
    return 0


def _cmd_verify(args, out) -> int:
    if args.list_suites:
        print(verify_runner.format_suite_list(), file=out)
        return 0
    if args.suite != "all" and args.suite not in verify_runner.SUITE_NAMES:
        print(f"error: unknown suite {args.suite!r}; choose from "
              f"all, {', '.join(verify_runner.SUITE_NAMES)} "
              "(see `repro verify --list`)", file=out)
        return 2
    err = _run_error(args)
    if err:
        print(f"error: {err}", file=out)
        return 2
    if args.regen:
        if args.suite not in ("golden", "all"):
            print("error: --regen regenerates golden fixtures; use it "
                  "with --suite golden", file=out)
            return 2
        from repro.verify.golden import regenerate_golden
        for path in regenerate_golden(workers=args.workers):
            print(f"wrote {path}", file=out)
        return 0
    names = None if args.suite == "all" else [args.suite]
    results, ok = verify_runner.run_suites(names, workers=args.workers,
                                           seed=args.seed)
    print(verify_runner.format_report(results), file=out)
    return 0 if ok else 1


def _cmd_serve(args, out) -> int:
    import signal
    import threading as _threading

    from repro.serve.server import SamplingServer, ServerConfig

    err = _workers_error(args.workers)
    if err:
        print(f"error: {err}", file=out)
        return 2
    config = ServerConfig(
        host=args.host, port=args.port,
        queue_capacity=args.queue_capacity, executors=args.executors,
        workers=args.workers,
        default_deadline_ms=args.default_deadline_ms,
        drain_timeout_s=args.drain_timeout,
        stats_out=args.stats_out,
        allow_test_hooks=args.test_hooks)
    try:
        server = SamplingServer(config).start()
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    except (OSError, OverflowError) as exc:
        print(f"error: cannot listen on {args.host}:{args.port}: "
              f"{exc}", file=out)
        return 2
    stop = _threading.Event()

    def on_signal(signum, frame):
        del frame
        print(f"received {signal.Signals(signum).name}; draining "
              f"({server.admission.inflight()} in flight, "
              f"{server.admission.depth()} queued)", file=out,
              flush=True)
        stop.set()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    print(f"repro serve listening on http://{args.host}:{server.port} "
          f"(queue={args.queue_capacity}, executors={args.executors}, "
          f"workers={args.workers}"
          + (", TEST HOOKS ENABLED" if args.test_hooks else "")
          + ")", file=out, flush=True)
    stop.wait()
    # drain() flushes the stats snapshot itself (the daemon must not
    # rely on surviving past this call); main()'s shared --stats-out
    # epilogue rewrites the same registry and prints the path once.
    finished = server.drain(timeout=args.drain_timeout)
    if not finished:
        print("drain timed out with requests still in flight",
              file=out, flush=True)
        return 1
    print("drained cleanly", file=out, flush=True)
    return 0


def _cmd_client(args, out) -> int:
    import json as _json
    import urllib.error

    from repro.serve.client import RetryPolicy, ServeClient
    from repro.serve.protocol import SampleRequest

    client = ServeClient(host=args.host, port=args.port,
                         retry=RetryPolicy(max_attempts=args.retries,
                                           seed=args.seed))
    try:
        if args.health:
            print(_json.dumps(client.health(), indent=2, sort_keys=True),
                  file=out)
            return 0
        request = SampleRequest(
            app=args.app, graph=args.graph, samples=args.samples,
            seed=args.seed, tenant=args.tenant,
            deadline_ms=args.deadline_ms,
            return_samples=not args.no_samples or bool(args.out))
        result = client.sample(request)
    except (urllib.error.URLError, ConnectionError, TimeoutError) as exc:
        print(f"error: cannot reach daemon at {args.host}:{args.port}: "
              f"{exc}", file=out)
        return 2
    resp = result.response
    if result.ok:
        print(f"ok: {resp['app']} on {resp['graph']} "
              f"({resp['samples']} samples, seed {resp['seed']})",
              file=out)
        print(f"  digest       {resp['digest']}", file=out)
        print(f"  wall         {resp['wall_ms']:.1f} ms "
              f"(queued {resp['queue_wait_ms']:.1f} ms, "
              f"attempts {result.attempts})", file=out)
        if args.out and result.arrays:
            import numpy as np
            np.savez_compressed(args.out, **result.arrays)
            print(f"  wrote samples to {args.out}", file=out)
        return 0
    detail = resp.get("error", "")
    print(f"{result.status}: {detail} (attempts {result.attempts})",
          file=out)
    if resp.get("retry_after_ms") is not None:
        print(f"  daemon suggests retrying in "
              f"{resp['retry_after_ms']:.0f} ms", file=out)
    return 1


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    want_stats = getattr(args, "stats", False)
    stats_out = getattr(args, "stats_out", None)
    # Refuse an output path in a missing directory before the work, not
    # after it.
    for flag, path in (("--trace", trace_path), ("--stats-out", stats_out)):
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            print(f"error: {flag} {path}: its directory does not exist",
                  file=out)
            return 2
    enabled_here = False
    if trace_path and not trace.tracing_enabled():
        trace.enable()
        enabled_here = True
    handler = {
        "datasets": _cmd_datasets,
        "sample": _cmd_sample,
        "compare": _cmd_compare,
        "bench": _cmd_bench,
        "figures": _cmd_figures,
        "report": _cmd_report,
        "verify": _cmd_verify,
        "serve": _cmd_serve,
        "client": _cmd_client,
    }[args.command]
    backend_name = getattr(args, "backend", None)
    if backend_name is not None:
        # Flag beats $REPRO_BACKEND (docs/CLI.md); scoped so in-process
        # callers of main() don't inherit the selection.
        from repro.native.backend import backend_scope
        try:
            with backend_scope(backend_name):
                code = handler(args, out)
        except RuntimeError as exc:
            print(f"error: backend {backend_name!r} unavailable: {exc}",
                  file=out)
            return 2
    else:
        code = handler(args, out)
    if trace_path and code == 0:
        write_chrome_trace(trace_path)
        print(f"wrote trace to {trace_path} "
              "(open in chrome://tracing or https://ui.perfetto.dev)",
              file=out)
    elif trace_path:
        print(f"command failed (exit {code}); trace not written",
              file=out)
    if stats_out and code == 0:
        write_openmetrics(stats_out)
        print(f"wrote OpenMetrics stats to {stats_out}", file=out)
    elif stats_out:
        print(f"command failed (exit {code}); stats not written",
              file=out)
    if want_stats:
        print(openmetrics_text(get_metrics()), file=out, end="")
    if enabled_here:
        trace.disable()
    return code


if __name__ == "__main__":
    sys.exit(main())
