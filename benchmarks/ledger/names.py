"""What the ledger declares: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is this module printed by
``run.py declare``; ``test_ledger.py`` checks the two agree and that
every declared name is emitted.  The README's glossary says what each
name means on each workload.
"""

from __future__ import annotations

from typing import Dict, List

COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]
RUN_SECONDS = 16

WORKLOADS: List[Dict[str, str]] = [
    {"name": "walk",
     "why": "DeepWalk-100, 16k walkers, weighted 160k-vertex graph: 100 "
            "small steps, so per-step fixed cost (transit map, charge "
            "model, chunking, spans) weighs as much as the kernels"},
    {"name": "khop",
     "why": "k-hop (25,10), 32k roots, 8.2M sampled vertices in 2 steps: "
            "kernel-bound, the bypass workload for every per-step "
            "optimisation"},
    {"name": "ladies",
     "why": "LADIES 64x64, 512 samples: the collective path (combined "
            "neighbourhood, edge recording) where compiled and numpy "
            "backends tie"},
    {"name": "served_mix",
     "why": "repro serve as a subprocess under a fixed 40/30/20/10 mix of "
            "small requests on a cache-resident graph: per-request fixed "
            "cost (HTTP, parse, engine construction, digest, base64)"},
]

# (name, unit, better, bound).  Times are reported as on the quiet
# reference host (canary.py); so corrected, the metrics spread 1 to 5 %
# over ten seeds (interquartile range over median).  The correction is a
# linear model of a host whose slow spells are not: a spell of 30 % still
# shows as 10 to 15 %, and a bound under twice that rejects the
# benchmark at random.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("samples_per_s", "1/s", "higher", 0.25),
    ("compiled_samples_per_s", "1/s", "higher", 0.25),
    ("pooled_samples_per_s", "1/s", "higher", 0.25),
    ("latency_ms", "ms", "lower", 0.25),
]

BACKENDS = ("numpy", "cnative")
PHASES = ("base", "load", "over")
CLASSES = ("khop", "khop_payload", "walk", "ladies")

_KERNELS = ("uniform_neighbors", "weighted_neighbors", "grouping",
            "segment_choice", "ragged_gather", "scatter_rows",
            "dedupe_rows")


def _per_layer() -> List[tuple]:
    out: List[tuple] = [
        ("graph.generate_s", "s", "lower"),
        ("graph.vertices", "count", "higher"),
        ("graph.edges", "count", "higher"),
        ("graph.csr_mb", "MB", "lower"),
    ]
    for b in BACKENDS:
        out.append((f"native.kernel_s.{b}", "s", "lower"))
        out += [(f"native.{k}_s.{b}", "s", "lower") for k in _KERNELS]
        out += [(f"native.pairs_per_s.{b}", "1/s", "higher"),
                (f"native.warm_up_s.{b}", "s", "lower"),
                (f"native.declined_calls.{b}", "count", "lower")]
    out += [
        ("native.pairs", "count", "higher"),
        ("native.draws", "count", "higher"),
        ("native.computed_mb", "MB", "lower"),
        ("native.compile_failures", "count", "lower"),
        ("api.hook_s", "s", "lower"),
        ("api.transits_for_step_s", "s", "lower"),
        ("api.post_step_s", "s", "lower"),
        ("api.record_edges_s", "s", "lower"),
        ("core.engine_run_s", "s", "lower"),
        ("core.step_loop_s", "s", "lower"),
        ("core.transit_map_s", "s", "lower"),
        ("core.init_batch_s", "s", "lower"),
        ("core.steps", "count", "higher"),
        ("core.transit_pairs", "count", "higher"),
        ("core.engine_overhead_s", "s", "lower"),
        ("core.engine_overhead_share", "ratio", "lower"),
        ("core.engine_residual_s", "s", "lower"),
        ("core.per_step_overhead_us", "us", "lower"),
        ("gpu.charge_model_s", "s", "lower"),
        ("gpu.charge_share", "ratio", "lower"),
        ("gpu.modeled_s", "s", "lower"),
        ("gpu.modeled_speedup_vs_sp", "x", "higher"),
        ("runtime.ctx_step_s", "s", "lower"),
        ("runtime.chunking_overhead_s", "s", "lower"),
        ("runtime.chunks", "count", "lower"),
        ("runtime.pooled_run_s.w1", "s", "lower"),
        ("runtime.pooled_run_s.wn", "s", "lower"),
        ("runtime.pool_overhead_s", "s", "lower"),
        ("runtime.pool_speedup", "x", "higher"),
        ("runtime.pool_efficiency", "ratio", "higher"),
        ("runtime.pool_spawn_s", "s", "lower"),
        ("runtime.shm_export_s", "s", "lower"),
        ("runtime.shm_mb", "MB", "lower"),
        ("runtime.chunk_retries", "count", "lower"),
        ("runtime.worker_crashes", "count", "lower"),
        ("runtime.degraded_runs", "count", "lower"),
        ("runtime.shm_leaked_segments", "count", "lower"),
    ]
    for p in PHASES:
        out += [(f"serve.client_ms_p50.{p}", "ms", "lower"),
                (f"serve.client_ms_tail.{p}", "ms", "lower"),
                (f"serve.queue_wait_ms_tail.{p}", "ms", "lower"),
                (f"serve.service_ms_p50.{p}", "ms", "lower"),
                (f"serve.overhead_ms_p50.{p}", "ms", "lower")]
    for c in CLASSES:
        out += [(f"serve.client_ms_p50.{c}", "ms", "lower"),
                (f"serve.direct_run_ms_p50.{c}", "ms", "lower")]
    out += [
        ("serve.closed_ms_p50.c1", "ms", "lower"),
        ("serve.closed_ms_tail.c1", "ms", "lower"),
        ("serve.closed_rps.c1", "1/s", "higher"),
        ("serve.closed_rps.cn", "1/s", "higher"),
        ("serve.max_rate_within_limit_rps", "1/s", "higher"),
        ("serve.handle_sample_ms_p50", "ms", "lower"),
        ("serve.http_ms_p50", "ms", "lower"),
        ("serve.keepalive_ms_p50", "ms", "lower"),
        ("serve.parse_us", "us", "lower"),
        ("serve.digest_ms", "ms", "lower"),
        ("serve.encode_ms", "ms", "lower"),
        ("serve.decode_ms", "ms", "lower"),
        ("serve.response_kb_p50", "kB", "lower"),
        ("serve.sent", "count", "higher"),
        ("serve.ok", "count", "higher"),
        ("serve.rejected", "count", "lower"),
        ("serve.deadline", "count", "lower"),
        ("serve.errors", "count", "lower"),
        ("serve.cache_hits", "count", "higher"),
        ("serve.cache_misses", "count", "lower"),
        ("serve.coalesced", "count", "lower"),
        ("serve.daemon_start_s", "s", "lower"),
        ("obs.trace_on_overhead_share", "ratio", "lower"),
        ("obs.noop_span_ns", "ns", "lower"),
        ("obs.spans_per_run", "count", "lower"),
        ("obs.snapshot_ms", "ms", "lower"),
        ("obs.openmetrics_render_ms", "ms", "lower"),
        ("bench.trace_overhead_share", "ratio", "lower"),
        ("bench.host_load1", "load", "lower"),
        ("bench.host_slowdown", "ratio", "lower"),
    ]
    for p in PHASES:
        out += [(f"bench.sender_late_ms_p50.{p}", "ms", "lower"),
                (f"bench.sender_late_ms_tail.{p}", "ms", "lower")]
    return out


PER_LAYER = _per_layer()

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def benchmark_json() -> dict:
    """The exact content of the repository's ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
