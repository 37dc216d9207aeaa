"""The layered perf ledger: one command, four workloads, named metrics.

    python3 benchmarks/ledger/run.py --workload walk --seed 7 \
        --seconds 16 --trace 0        # end-to-end metrics, tracing off
    python3 benchmarks/ledger/run.py --workload walk --trace 1
                                      # per-layer metrics from spans
    python3 benchmarks/ledger/run.py --out A.json
                                      # every workload, both modes
    python3 benchmarks/ledger/run.py agree A.json B.json
    python3 benchmarks/ledger/run.py --quick ...    # smoke sizes

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import time

_T_PROCESS = time.perf_counter()  # before the heavy imports: set-up pays them

import argparse
import contextlib
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

# numpy asks the kernel for huge pages behind every large array; with
# THP on "madvise" a fault then stalls on compaction whenever memory is
# fragmented, and a third to a half of the khop iterations run 1.5x
# slow.  Off (set before numpy is imported, inherited by the workers and
# the daemon) the iteration times have one mode and medians repeat.
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.abspath(os.path.join(HERE, "..", ".."))
OUT = os.path.join(HERE, "out")

import names
import quant
import reap
import spans as sp

# The modules that import numpy and the program; main() loads them once
# it has found src/ and put it on sys.path.
canary = inproc = served = None

#: Cold set-ups per run (this process plus child probes); setup_s is
#: their median.
SETUPS = 3

#: Per-layer counts that must repeat exactly between runs of one commit.
EXACT = ("core.steps", "core.transit_pairs", "native.pairs",
         "runtime.chunks", "gpu.modeled_s", "serve.sent")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def fresh_cache_dir(tag: str) -> str:
    """An empty ``XDG_CACHE_HOME`` under out/, so the C kernels are
    built cold and set-up time repeats."""
    path = os.path.join(OUT, f"cache-{os.getpid()}-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_cache_dirs() -> None:
    prefix = f"cache-{os.getpid()}-"
    for name in os.listdir(OUT):
        if name.startswith(prefix):
            shutil.rmtree(os.path.join(OUT, name), ignore_errors=True)


def say(text: str = "") -> None:
    print(text, flush=True)


# ----------------------------------------------------------------------
# env block
# ----------------------------------------------------------------------

def _read(path: str) -> Optional[str]:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu() -> Dict[str, object]:
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for index in sorted(os.listdir(base)):
            level = _read(os.path.join(base, index, "level"))
            kind = _read(os.path.join(base, index, "type"))
            size = _read(os.path.join(base, index, "size"))
            if level and size:
                caches[f"L{level}{'' if kind == 'Unified' else kind[:1].lower()}"] = size
    return {"model": model or platform.processor(), "caches": caches}


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def _compiler() -> Optional[str]:
    from repro.native.cnative import find_compiler
    cc = find_compiler()
    if cc is None:
        return None
    try:
        out = subprocess.run([cc, "--version"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.splitlines()[0] if out.stdout else cc
    except (OSError, subprocess.TimeoutExpired):
        return cc


def env_block(args, started: str) -> Dict[str, object]:
    import numpy
    from repro.native.backend import available_backends
    return {"git_sha": _git_sha(), "nproc": nproc(), "cpu": _cpu(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "compiler": _compiler(),
            "available_backends": list(available_backends()),
            "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
            "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
            "host_load1_at_start": os.getloadavg()[0],
            "started": started,
            "ended": datetime.datetime.now(datetime.timezone.utc).isoformat()}


# ----------------------------------------------------------------------
# Batch workloads: end-to-end (tracing off)
# ----------------------------------------------------------------------

def child_setup(workload: str, args, tag: str) -> Dict[str, float]:
    """One more cold set-up in a fresh interpreter (the C library is
    memoised per process, so only a new process builds it cold)."""
    cmd = [sys.executable, os.path.abspath(__file__), "setup-probe",
           "--workload", workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    env = dict(os.environ, XDG_CACHE_HOME=fresh_cache_dir(tag))
    start = time.perf_counter()
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{done.stdout}{done.stderr}")
    return dict(json.loads(done.stdout.splitlines()[-1]), start=start,
                end=time.perf_counter())


def setup_probe(args) -> int:
    sizing = inproc.sizing_of(args.quick)
    try:
        _, timing = inproc.cold_setup(args.workload, args.seed, sizing,
                                      _T_PROCESS, nproc())
    finally:
        inproc.teardown()
    timing["pid"] = os.getpid()
    say(json.dumps(timing))
    return 0


def quiet_setups(host, setups: List[Dict[str, float]]) -> float:
    """Median set-up time, each as on the quiet host (see canary.py);
    the entries gain ``host_slowdown`` and ``quiet_setup_s``."""
    for s in setups:
        s["host_slowdown"] = host.slowdown(s.pop("start"), s.pop("end"))
        s["quiet_setup_s"] = s["setup_s"] / s["host_slowdown"]
    return quant.median(s["quiet_setup_s"] for s in setups)


def batch_rates(samples: int, seconds: Dict[str, List[float]]
                ) -> Dict[str, float]:
    default_ms = [s * 1e3 for s in seconds["default"]]
    return {
        "samples_per_s": samples / quant.quiet_time(seconds["default"]),
        "compiled_samples_per_s":
            samples / quant.quiet_time(seconds["compiled"]),
        "pooled_samples_per_s": samples / quant.quiet_time(seconds["pooled"]),
        "latency_ms": quant.quiet_time(default_ms),
    }


def batch_end_to_end(workload: str, args) -> Dict[str, object]:
    sizing = inproc.sizing_of(args.quick)
    workers = nproc()
    configs = {"default": ("numpy", 0), "compiled": ("cnative", 0),
               "pooled": ("cnative", workers)}
    gate = inproc.Gate()
    os.environ["XDG_CACHE_HOME"] = fresh_cache_dir("0")
    jobs, timing = inproc.cold_setup(workload, args.seed, sizing,
                                     _T_PROCESS, workers)
    host = canary.Canary()
    timing["end"] = time.perf_counter()
    timing["start"] = timing["end"] - timing["setup_s"]
    host.read(5)
    setups = [timing]
    for k in range(1, SETUPS):
        host.read(3)
        setups.append(child_setup(workload, args, str(k)))
        host.read(3)
    pids = [os.getpid()] + [s["pid"] for s in setups[1:]]
    try:
        # Warm-up pass per configuration, outside the measured window;
        # its outputs feed the correctness gate.
        for label, (backend, w) in configs.items():
            _, results = inproc.engine_pass(jobs, backend, w)
            inproc.gate_results(gate, jobs, label, results)
            for job, result in zip(jobs, results):
                bad = inproc.invalid_pairs(job, result.batch)
                gate.check(bad == 0, f"{label}: {bad} invalid pairs")
            del results, result
        timed = {label: [] for label in configs}
        host.read()
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            for label, (backend, w) in configs.items():
                start = time.perf_counter()
                per_job, results = inproc.engine_pass(jobs, backend, w)
                timed[label].append((sum(per_job), start,
                                     time.perf_counter()))
                inproc.gate_results(gate, jobs, label, results, digest=False)
                # Free the samples before the next timed run, so that
                # every run starts from the same heap and peak memory is
                # one run's, not two.
                del results
                host.read()
        counters = inproc.runtime_counters()
        gate.check(counters["degraded"] == 0, "a pooled run degraded")
    finally:
        inproc.teardown()
    leaked = inproc.leaked_segments(pids)
    gate.check(not leaked, f"leaked shm segments {leaked}")

    samples = sum(job.samples for job in jobs)
    seconds = {label: [s for s, _, _ in runs]
               for label, runs in timed.items()}
    quiet = {label: [s / host.slowdown(start, end) for s, start, end in runs]
             for label, runs in timed.items()}
    metrics = {"setup_s": quiet_setups(host, setups),
               "peak_rss_mb": inproc.peak_rss_mb(),
               **batch_rates(samples, quiet)}
    default_ms = [s * 1e3 for s in seconds["default"]]
    return {"metrics": metrics, "gate": gate,
            "operations": sum(len(v) for v in seconds.values()),
            "detail": {"setups": setups, "iterations":
                       {k: len(v) for k, v in seconds.items()},
                       "host_slowdown": host.overall(),
                       "as_measured": {
                           "setup_s": quant.median(s["setup_s"]
                                                   for s in setups),
                           **batch_rates(samples, seconds)},
                       "run_seconds": seconds,
                       "latency_p50_ms": quant.median(default_ms),
                       "latency_tail": quant.tail(default_ms),
                       "samples_per_run": samples,
                       "graphs": graph_sizes(jobs),
                       "digests": gate.digests}}


def graph_sizes(jobs) -> List[Dict[str, object]]:
    return [{"name": g.name, "vertices": g.num_vertices,
             "edges": g.num_edges, "weighted": g.is_weighted,
             "csr_mb": inproc.graph_mb(g)}
            for g in inproc.distinct_graphs(jobs)]


# ----------------------------------------------------------------------
# In-process layers (traced): batch workloads and the served_mix cycle
# ----------------------------------------------------------------------

def layer_pass(jobs, rec: sp.Recorder, gate, pass_id: int
               ) -> Dict[str, float]:
    """One iteration per configuration, spans on; raw numbers.  Samples
    are digested and dropped at once, so every timed call starts from
    the same heap."""
    row: Dict[str, float] = {"gpu.charge_model_s": 0.0,
                             "core.transit_pairs": 0}
    replayed = []
    for backend in names.BACKENDS:
        run = f"{pass_id}:{backend}"
        stats = dict.fromkeys(("calls", "declined", "bytes", "pairs",
                               "draws"), 0)
        with inproc.backend_scope(backend):
            for i, job in enumerate(jobs):
                _, batch, records = inproc.step_loop(job, rec, stats, run)
                gate.same(f"digest[{i}:{job.cls}]", f"step loop/{backend}",
                          inproc.batch_digest(batch))
                if backend == "numpy":
                    with rec.span("gpu.charge_replay", run=run):
                        host_s, modeled_s = inproc.replay_charges(
                            job, batch, records)
                    row["gpu.charge_model_s"] += host_s
                    row["core.transit_pairs"] += sum(
                        r.tmap.num_pairs for r in records)
                    replayed.append(modeled_s)
                del batch, records
        spans = sp.totals(rec.spans, run)

        def total(name, field="total"):
            return spans.get(name, {}).get(field, 0.0)

        for hook in inproc.NATIVE_HOOKS:
            row[f"native.{hook}_s.{backend}"] = total(f"native.{hook}",
                                                      "self")
        row[f"native.kernel_s.{backend}"] = sum(
            row[f"native.{hook}_s.{backend}"] for hook in inproc.NATIVE_HOOKS)
        row[f"native.declined_calls.{backend}"] = stats["declined"]
        row[f"hook_s.{backend}"] = total("api.hook")
        if backend == "numpy":
            row.update({
                "core.step_loop_s": total("core.step_loop"),
                "core.init_batch_s": total("core.init_batch"),
                "core.transit_map_s": total("core.transit_map"),
                "api.hook_s": total("api.hook"),
                "api.transits_for_step_s": total("api.transits_for_step"),
                "api.post_step_s": total("api.post_step"),
                "api.record_edges_s": total("api.record_edges"),
                "runtime.ctx_step_s": total("runtime.ctx_step"),
                "runtime.chunking_overhead_s": total("runtime.ctx_step",
                                                     "self"),
                "runtime.chunks": total("api.hook", "count"),
                "core.steps": total("runtime.ctx_step", "count"),
            })
        else:
            row.update({"native.pairs": stats["pairs"],
                        "native.draws": stats["draws"],
                        "native.computed_mb": stats["bytes"] / 1e6})

    with inproc.backend_scope("numpy"):
        untraced_s = sum(inproc.step_loop(job)[0] for job in jobs)
    row["bench.trace_overhead_share"] = \
        row["core.step_loop_s"] / untraced_s - 1.0

    def engine(label: str, backend: str, workers: int) -> List[float]:
        per_job, results = inproc.engine_pass(jobs, backend, workers)
        inproc.gate_results(gate, jobs, label, results)
        return per_job

    row["per_job_s"] = engine("engine.run/default", "numpy", 0)
    row["core.engine_run_s"] = sum(row["per_job_s"])
    traced_s, row["obs.spans_per_run"] = inproc.traced_engine_pass(jobs)
    row["obs.trace_on_overhead_share"] = \
        traced_s / row["core.engine_run_s"] - 1.0
    for i, modeled_s in enumerate(replayed):
        gate.same(f"modeled_s[{i}:{jobs[i].cls}]", "charge replay", modeled_s)
    row["gpu.modeled_s"] = sum(replayed)
    row["compiled_run_s"] = sum(engine("engine.run/cnative/w0", "cnative", 0))
    row["runtime.pooled_run_s.w1"] = sum(
        engine("engine.run/cnative/w1", "cnative", 1))
    row["runtime.pooled_run_s.wn"] = sum(
        engine(f"engine.run/cnative/w{nproc()}", "cnative", nproc()))
    return row


def in_process_layers(jobs, timing, args, budget_s: float, rec, gate
                      ) -> Dict[str, object]:
    """Time-boxed traced passes; medians of the timings, counts checked
    for exact repetition, then the derived overhead metrics."""
    # Untraced warm-up of every configuration: lazy caches (edge keys,
    # weight prefix sums, worker imports) fill before anything is timed.
    for backend, workers in (("numpy", 0), ("cnative", 0),
                             ("cnative", nproc())):
        inproc.engine_pass(jobs, backend, workers)
    rows: List[Dict[str, float]] = []
    host = canary.Canary()
    host.read()
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        rows.append(layer_pass(jobs, rec, gate, len(rows)))
        host.read()
        elapsed, last = time.perf_counter() - start, time.perf_counter() - t
        if elapsed + last > budget_s:
            break
    # Layer seconds are as measured; this says what the host was doing.
    m: Dict[str, float] = {"bench.host_slowdown": host.overall()}
    for key in rows[0]:
        values = [row[key] for row in rows]
        if key == "per_job_s":
            continue
        if key in EXACT or key.startswith(("native.declined", "native.pairs",
                                           "native.draws")):
            gate.check(len(set(values)) == 1,
                       f"{key} varied between passes: {values}")
            m[key] = values[0]
        else:
            m[key] = quant.median(values)
    pairs = m["core.transit_pairs"]
    for backend in names.BACKENDS:
        m[f"native.pairs_per_s.{backend}"] = pairs / m.pop(f"hook_s.{backend}")
        m[f"native.warm_up_s.{backend}"] = timing[f"warm_up_s.{backend}"]
    run_s, loop_s = m["core.engine_run_s"], m["core.step_loop_s"]
    compiled_s = m.pop("compiled_run_s")
    m.update({
        "core.engine_overhead_s": run_s - loop_s,
        "core.engine_overhead_share": (run_s - loop_s) / run_s,
        "core.engine_residual_s": run_s - loop_s - m["gpu.charge_model_s"],
        "core.per_step_overhead_us":
            (run_s - m["api.hook_s"]) / m["core.steps"] * 1e6,
        "gpu.charge_share": m["gpu.charge_model_s"] / run_s,
        "gpu.modeled_speedup_vs_sp":
            inproc.modeled_speedup_vs_sp(jobs, m["gpu.modeled_s"]),
        "runtime.pool_overhead_s": m["runtime.pooled_run_s.w1"] - compiled_s,
        "runtime.pool_speedup": compiled_s / m["runtime.pooled_run_s.wn"],
        "runtime.pool_efficiency":
            compiled_s / m["runtime.pooled_run_s.wn"] / nproc(),
        "runtime.pool_spawn_s": timing["pool_spawn_s"],
        "runtime.shm_export_s": timing["shm_export_s"],
        "runtime.shm_mb": timing["shm_mb"],
        "graph.generate_s": timing["generate_s"],
    })
    graphs = inproc.distinct_graphs(jobs)
    m["graph.vertices"] = sum(g.num_vertices for g in graphs)
    m["graph.edges"] = sum(g.num_edges for g in graphs)
    m["graph.csr_mb"] = sum(inproc.graph_mb(g) for g in graphs)
    m.update(inproc.obs_probes())
    counters = inproc.runtime_counters()
    m["runtime.chunk_retries"] = counters["chunk_retries"]
    m["runtime.worker_crashes"] = counters["worker_crashes"]
    m["runtime.degraded_runs"] = counters["degraded"]
    m["native.compile_failures"] = counters["compile_failures"]
    per_job = [quant.median([row["per_job_s"][i] for row in rows])
               for i in range(len(jobs))]
    return {"metrics": m, "passes": len(rows), "per_job_s": per_job,
            "residual_share": (run_s - loop_s - m["gpu.charge_model_s"])
            / run_s}


def batch_layers(workload: str, args) -> Dict[str, object]:
    sizing = inproc.sizing_of(args.quick)
    gate, rec = inproc.Gate(), sp.Recorder()
    os.environ["XDG_CACHE_HOME"] = fresh_cache_dir("0")
    jobs, timing = inproc.cold_setup(workload, args.seed, sizing,
                                     _T_PROCESS, nproc())
    try:
        layers = in_process_layers(jobs, timing, args, args.seconds, rec,
                                   gate)
    finally:
        inproc.teardown()
    leaked = inproc.leaked_segments([os.getpid()])
    gate.check(not leaked, f"leaked shm segments {leaked}")
    metrics = dict.fromkeys(names.LAYER_UNITS, 0.0)  # serve.*: not applicable
    metrics.update(layers["metrics"])
    metrics["runtime.shm_leaked_segments"] = len(leaked)
    rec.dump(os.path.join(OUT, f"trace-{workload}.json"))
    return {"metrics": metrics, "gate": gate,
            "operations": layers["passes"],
            "detail": {"passes": layers["passes"], "setup": timing,
                       "engine_residual_share": layers["residual_share"],
                       "spans": len(rec.spans),
                       "graphs": graph_sizes(jobs),
                       "digests": gate.digests}}


# ----------------------------------------------------------------------
# served_mix
# ----------------------------------------------------------------------

def direct_digests(jobs, cycle, gate) -> Dict[str, str]:
    """Digest of the first request of each class, run directly (from
    the gate's record when the cycle already ran in this process)."""
    if "digest[0:%s]" % cycle[0] not in gate.digests:
        inproc.gate_results(gate, jobs, "direct",
                            inproc.engine_pass(jobs, "numpy", 0)[1])
    first = {}
    for i, cls in enumerate(cycle):
        first.setdefault(cls, gate.digests[f"digest[{i}:{cls}]"])
    return first


def gate_first_responses(gate, first: Dict[str, dict],
                         expected: Dict[str, str], label: str) -> None:
    for cls, row in first.items():
        gate.check(row["status"] == "ok" and row.get("digest") == expected[cls],
                   f"{label}: first {cls} response {row['status']} digest "
                   f"{row.get('digest')!r}, direct run {expected[cls]!r}")


def gate_rows(gate, rows: List[dict], label: str) -> None:
    failed = [r for r in rows if r["status"] != "ok"]
    gate.attempted += len(rows)
    gate.failures += [f"{label}: request {r['i']} ({r['cls']}) "
                      f"{r['status']} {r.get('error', '')}" for r in failed]


def served_end_to_end(args) -> Dict[str, object]:
    gate = inproc.Gate()
    cycle = inproc.mix_cycle(args.seed)
    senders = nproc()
    sizing = inproc.sizing_of(args.quick)
    jobs = inproc.jobs_for("served_mix", args.seed, sizing)
    expected = direct_digests(jobs, cycle, gate)
    # Three daemons, three cold starts, all up for the whole window.  One
    # client sends the mix back to back, one pass of the cycle to each
    # daemon in turn, so that a slow spell of the host that begins or
    # ends inside the window costs every configuration the same passes.
    # Open-loop percentiles do not repeat within a bound at this run
    # length (two requests that overlap slow each other by half), so they
    # are layer metrics and the bounded numbers come from the closed loop.
    plan = (("default", "numpy", 0), ("compiled", "cnative", 0),
            ("pooled", "cnative", senders))
    setups, daemons = [], {}
    rows = {label: [] for label, _, _ in plan}
    host = canary.Canary()
    with contextlib.ExitStack() as stack:
        for label, backend, workers in plan:
            host.read(3)
            start = time.perf_counter()
            d = daemons[label] = stack.enter_context(
                served.Daemon(fresh_cache_dir(label), backend, workers))
            first = served.warm(d, args.seed, cycle)
            end = time.perf_counter()
            setups.append({"setup_s": end - start, "start": start,
                           "end": end})
            host.read(3)
            gate_first_responses(gate, first, expected, label)
        deadline = time.perf_counter() + args.seconds
        k = 0
        while time.perf_counter() < deadline:
            for label, d in daemons.items():
                rows[label] += served.cycle_pass(d.port, args.seed, cycle, k)
            host.read()
            k += 1
        rss_mb = [d.vm_hwm_mb() for d in daemons.values()]
    for label, d in daemons.items():
        gate_rows(gate, rows[label], f"closed/{label}")
        gate.check(d.clean_exit, f"{label} daemon did not drain cleanly")
    pids = [d.pid for d in daemons.values()]
    leaked = inproc.leaked_segments(pids)
    gate.check(not leaked, f"leaked shm segments {leaked}")

    passes = {label: served.passes(r, len(cycle))
              for label, r in rows.items()}
    for label in passes:
        for p in passes[label]:
            p["host_slowdown"] = host.slowdown(p["start"], p["end"])
    metrics = {
        "setup_s": quiet_setups(host, setups),
        # A daemon ends at about 85 MB or about 101 MB, whatever its
        # configuration (which handler threads got a malloc arena of
        # their own); the median of three daemons flips less often.
        "peak_rss_mb": quant.median(rss_mb),
        **served_rates(passes, quiet=True)}
    latency = [r["latency_ms"] for r in rows["default"]]
    return {"metrics": metrics, "gate": gate, "operations": 0,
            "detail": {"setups": setups, "daemon_rss_mb": rss_mb,
                       "iterations": {k: len(v) for k, v in passes.items()},
                       "host_slowdown": host.overall(),
                       "as_measured": {
                           "setup_s": quant.median(s["setup_s"]
                                                   for s in setups),
                           **served_rates(passes, quiet=False)},
                       "latency_p50_ms": quant.median(latency),
                       "latency_tail": quant.tail(latency),
                       "passes": passes,
                       "digests": gate.digests}}


def served_rates(passes: Dict[str, List[Dict[str, float]]], quiet: bool
                 ) -> Dict[str, float]:
    """The closed-loop numbers, from complete passes of the cycle; with
    ``quiet`` each pass as on the quiet host (see canary.py)."""
    def scaled(label: str, field: str, power: int) -> List[float]:
        return [p[field] * (p["host_slowdown"] ** power if quiet else 1.0)
                for p in passes[label]]

    return {
        "samples_per_s": quant.quiet_rate(
            scaled("default", "samples_per_s", 1)),
        "compiled_samples_per_s": quant.quiet_rate(
            scaled("compiled", "samples_per_s", 1)),
        "pooled_samples_per_s": quant.quiet_rate(
            scaled("pooled", "samples_per_s", 1)),
        "latency_ms": quant.quiet_time(scaled("default", "latency_ms", -1)),
    }


def served_layers(args) -> Dict[str, object]:
    gate, rec = inproc.Gate(), sp.Recorder()
    cycle = inproc.mix_cycle(args.seed)
    senders = nproc()
    sizing = inproc.sizing_of(args.quick)
    os.environ["XDG_CACHE_HOME"] = fresh_cache_dir("0")
    jobs, timing = inproc.cold_setup("served_mix", args.seed, sizing,
                                     _T_PROCESS, senders)
    pids = [os.getpid()]
    try:
        layers = in_process_layers(jobs, timing, args, 0.25 * args.seconds,
                                   rec, gate)
        payload_job = jobs[cycle.index("khop_payload")]
        probes = served.protocol_probes(
            args.seed, cycle,
            inproc.engine_pass([payload_job], "numpy", 0)[1][0],
            5 if args.quick else 25)
    finally:
        inproc.teardown()
    metrics = dict.fromkeys(names.LAYER_UNITS, 0.0)
    metrics.update(layers["metrics"])
    metrics.update(probes)
    direct_ms: Dict[str, List[float]] = {}
    for cls, run_s in zip(cycle, layers["per_job_s"]):
        direct_ms.setdefault(cls, []).append(run_s * 1e3)
    for cls, values in direct_ms.items():
        metrics[f"serve.direct_run_ms_p50.{cls}"] = quant.median(values)

    phase_rows: Dict[str, List[dict]] = {}
    with served.Daemon(fresh_cache_dir("daemon")) as d:
        pids.append(d.pid)
        first = served.warm(d, args.seed, cycle)
        gate_first_responses(gate, first, direct_digests(jobs, cycle, gate),
                             "default")
        for phase, share in (("base", 0.2), ("load", 0.2), ("over", 0.1)):
            rate = served.RATES[phase]
            phase_rows[phase] = served.open_loop(
                d.port, args.seed, cycle, rate,
                max(20, int(rate * args.seconds * share)), senders)
            served.spans_of(rec, phase_rows[phase], phase)
        closed = {}
        for label, clients in (("c1", 1), ("cn", senders)):
            closed[label] = served.closed_loop(d.port, args.seed, cycle,
                                               clients, 0.1 * args.seconds)
            gate_rows(gate, closed[label]["rows"], f"closed/{label}")
        metrics["serve.keepalive_ms_p50"] = served.keepalive_ms(
            d.port, args.seed, cycle, 5 if args.quick else 20)
        scraped = d.scrape()
    gate.check(d.clean_exit, "daemon did not drain cleanly")
    all_rows = [r for rows in phase_rows.values() for r in rows]
    gate_rows(gate, all_rows, "open loop")
    leaked = inproc.leaked_segments(pids)
    gate.check(not leaked, f"leaked shm segments {leaked}")

    phases = {p: served.summarize_phase(rows)
              for p, rows in phase_rows.items()}
    within = [served.RATES[p] for p, s in phases.items()
              if s["tail"]["value"] <= served.LIMIT_TAIL_MS
              and s["failed_share"] <= served.LIMIT_FAILED_SHARE]
    for phase, s in phases.items():
        metrics.update({
            f"serve.client_ms_p50.{phase}": s["p50"],
            f"serve.client_ms_tail.{phase}": s["tail"]["value"],
            f"serve.queue_wait_ms_tail.{phase}": s["queue_wait_tail"]["value"],
            f"serve.service_ms_p50.{phase}": s["service_p50"],
            f"serve.overhead_ms_p50.{phase}": s["overhead_p50"],
            f"bench.sender_late_ms_p50.{phase}": s["late_p50"],
            f"bench.sender_late_ms_tail.{phase}": s["late_tail"]["value"],
        })
    for cls in names.CLASSES:
        # Base phase first; a short run may hold no request of a rare
        # class there, then every open-loop request of the class counts.
        rows = [r for r in phase_rows["base"] if r["cls"] == cls] or \
               [r for r in all_rows if r["cls"] == cls] or [first[cls]]
        metrics[f"serve.client_ms_p50.{cls}"] = quant.median(
            [r["latency_ms"] for r in rows])
    # Open-loop requests only: their number follows from the schedule,
    # so serve.sent repeats exactly (closed loops are time-boxed).
    counts = served.count_status(all_rows)
    c1_ms = [r["latency_ms"] for r in closed["c1"]["rows"]]
    metrics.update({f"serve.{k}": v for k, v in counts.items()})
    metrics.update({
        "serve.closed_ms_p50.c1": quant.median(c1_ms),
        "serve.closed_ms_tail.c1": quant.tail(c1_ms)["value"],
        "serve.closed_rps.c1": closed["c1"]["rps"],
        "serve.closed_rps.cn": closed["cn"]["rps"],
        "serve.max_rate_within_limit_rps": max(within, default=0.0),
        "serve.http_ms_p50": metrics["serve.client_ms_p50.khop"]
        - metrics["serve.handle_sample_ms_p50"],
        "serve.response_kb_p50": quant.median(
            [r["bytes"] / 1024.0 for r in all_rows]),
        "serve.cache_hits": scraped["cache_hits"],
        "serve.cache_misses": scraped["cache_misses"],
        "serve.coalesced": scraped["coalesced"],
        "serve.daemon_start_s": d.start_s,
        "runtime.shm_leaked_segments": len(leaked),
    })
    rec.dump(os.path.join(OUT, "trace-served_mix.json"))
    return {"metrics": metrics, "gate": gate, "operations": layers["passes"],
            "detail": {"passes": layers["passes"], "senders": senders,
                       "phases": phases, "setup": timing,
                       "engine_residual_share": layers["residual_share"],
                       "spans": len(rec.spans), "digests": gate.digests}}


# ----------------------------------------------------------------------
# One run, printing, result files
# ----------------------------------------------------------------------

def run_one(workload: str, trace: int, args) -> Dict[str, object]:
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    load1 = os.getloadavg()[0]
    if load1 > 1.0:
        say(f"warning: noisy host, load1 = {load1:.2f} at start")
    try:
        if workload == "served_mix":
            out = served_layers(args) if trace else served_end_to_end(args)
        else:
            out = (batch_layers(workload, args) if trace
                   else batch_end_to_end(workload, args))
    finally:
        remove_cache_dirs()
    if trace:
        out["metrics"]["bench.host_load1"] = load1
    gate = out["gate"]
    units = names.LAYER_UNITS if trace else names.E2E_UNITS
    missing = sorted(set(units) - set(out["metrics"]))
    extra = sorted(set(out["metrics"]) - set(units))
    gate.check(not missing and not extra,
               f"declared but not emitted {missing}; undeclared {extra}")
    attempted = gate.attempted + out["operations"]
    result = {
        "workload": workload, "trace": trace,
        "correct": not gate.failures, "attempted": attempted,
        "failed": len(gate.failures),
        "failed_share": len(gate.failures) / attempted,
        "metrics": {name: {"value": float(out["metrics"][name]),
                           "unit": units[name]}
                    for name in units if name in out["metrics"]},
        "failures": gate.failures[:20],
        "detail": out["detail"],
        "env": env_block(args, started),
    }
    path = result_path(workload, trace, args.seed)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    report(result, path)
    return result


def result_path(workload: str, trace: int, seed: int) -> str:
    return os.path.join(OUT, f"result-{workload}-trace{trace}-seed{seed}.json")


def report(result: Dict[str, object], path: str) -> None:
    say(f"== {result['workload']}  trace={result['trace']}  "
        f"seed={result['env']['seed']}  ->  {path}")
    for key, value in sorted(result["detail"].get("digests", {}).items()):
        say(f"   {key:<34} {value}")
    for name, m in result["metrics"].items():
        say(f"   {name:<38} {m['value']:>16.6g} {m['unit']}")
    detail = result["detail"]
    if "iterations" in detail:
        t = detail["latency_tail"]
        say(f"   iterations {detail['iterations']}; as measured, latency "
            f"p50 = {detail['latency_p50_ms']:.3f} ms, p{t['p']:g} = "
            f"{t['value']:.3f} ms of {t['n']} samples (ten beyond it: "
            f"{t['supported']}); reported, not bounded")
        say(f"   the host ran {detail['host_slowdown']:.3f} times slower "
            f"than the quiet reference host (canary.py); as measured: "
            + ", ".join(f"{k} {v:.6g}"
                        for k, v in detail["as_measured"].items()))
    if "engine_residual_share" in detail:
        say(f"   step_loop + charge_model + residual = engine_run; "
            f"residual share {detail['engine_residual_share']:.4f}")
    say(f"   failed_share {result['failed_share']:.6f} "
        f"({result['failed']} of {result['attempted']})")
    for failure in result["failures"]:
        say(f"   FAILED: {failure}")
    say(json.dumps({k: result[k] for k in
                    ("correct", "attempted", "failed", "metrics")}))


# ----------------------------------------------------------------------
# agree
# ----------------------------------------------------------------------

def _index(path: str) -> Dict[tuple, Dict[str, List[float]]]:
    with open(path) as fh:
        data = json.load(fh)
    out: Dict[tuple, Dict[str, List[float]]] = {}
    for result in data if isinstance(data, list) else [data]:
        slot = out.setdefault((result["workload"], result["trace"]), {})
        for name, m in result["metrics"].items():
            slot.setdefault(name, []).append(m["value"])
    return out


def _spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / quant.median(values)


def agree(path_a: str, path_b: str) -> int:
    """Compare two result sets of one commit, metric by metric, against
    the bounds in ``BENCHMARK.json``."""
    a, b = _index(path_a), _index(path_b)
    bounds = {n: (better, bound) for n, _, better, bound in names.END_TO_END}
    worst = 0
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        for name in (bounds if trace == 0 else EXACT):
            if name not in a[key] or name not in b[key]:
                continue
            va, vb = a[key][name], b[key][name]
            ma, mb = quant.median(va), quant.median(vb)
            if trace:
                verdict = "ok" if va == vb else "out-of-bound"
                bound = 0.0
            else:
                better, bound = bounds[name]
                verdict = ("ok" if abs(mb - ma) <= bound * abs(ma)
                           else "out-of-bound")
                if max(_spread(va), _spread(vb)) > bound:
                    verdict = "unresolved"
            worst |= verdict == "out-of-bound"
            say(f"{verdict:<13} {workload:<11} {name:<26} "
                f"{ma:>14.6g} {mb:>14.6g}  bound {bound:g}")
    return 1 if worst else 0


# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", default="run",
                        choices=["run", "agree", "declare", "setup-probe"])
    parser.add_argument("files", nargs="*", help="agree: A.json B.json")
    parser.add_argument("--workload",
                        choices=[w["name"] for w in names.WORKLOADS])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes: scale 300, a few seconds")
    parser.add_argument("--out", help="write the result set here")
    args = parser.parse_args(argv)
    if args.command == "declare":
        say(json.dumps(names.benchmark_json(), indent=2))
        return 0
    if args.command == "agree":
        if len(args.files) != 2:
            parser.error("agree takes two result files")
        return agree(*args.files)
    if args.seconds is None:
        args.seconds = 2.0 if args.quick else float(names.RUN_SECONDS)

    src = os.path.join(REPO, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program to measure under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    global canary, inproc, served
    import canary
    import inproc
    import served
    # Pool workers, child probes and the daemon import the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p])
    os.makedirs(OUT, exist_ok=True)
    if args.command == "setup-probe":
        return setup_probe(args)

    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in names.WORKLOADS])
    traces = [args.trace] if args.trace is not None else (
        [0] if args.workload else [0, 1])
    if len(workloads) * len(traces) == 1:
        results = [run_one(workloads[0], traces[0], args)]
    else:
        # One fresh process per run, as the driver does it: cold set-up
        # is only cold in a new interpreter.
        results = []
        for w in workloads:
            for t in traces:
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", w, "--trace", str(t), "--seed",
                       str(args.seed), "--seconds", str(args.seconds)]
                subprocess.run(cmd + (["--quick"] if args.quick else []))
                with open(result_path(w, t, args.seed)) as fh:
                    results.append(json.load(fh))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1, default=str)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    # The pool spawns its workers, which import this file again: only the
    # command itself runs, and it runs below a parent that waits until
    # every process of the run has ended (reap.py).
    reap.supervise()
    sys.exit(main())
