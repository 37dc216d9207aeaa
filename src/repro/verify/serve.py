"""Serve suite: the daemon returns the same bits as direct execution,
under every robustness scenario.

Each check boots a real :class:`~repro.serve.server.SamplingServer` on
an ephemeral port (test hooks enabled) and drives it with the real
HTTP client, then asserts against a **direct** in-process engine run:

* plain, five-way concurrent identical, post-cancellation and
  post-chunk-error responses are digest-identical to ``repro sample``
  output, and the faulted request itself is a structured error;
* a queue-full rejection is deterministic (same request, same
  rejection, honest positive ``retry_after_s``) and does not perturb
  the bits of requests around it;
* a drain finishes in-flight work and refuses new work loudly.

Run with ``repro verify --suite serve``.
"""

from __future__ import annotations

import threading
import time
import warnings
from typing import List, Optional

from repro.core.engine import NextDoorEngine
from repro.obs import get_metrics
from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.protocol import SampleRequest, batch_digest
from repro.serve.server import SamplingServer, ServerConfig
from repro.verify.result import CheckResult

__all__ = ["run_serve_checks"]

SUITE = "serve"

_GRAPH = "ppi"
#: Step 0 of either app has one pair per sample: two chunks of
#: ``CHUNK_PAIRS``, so ``chunk-error:0.1`` lands on a real chunk.
_SAMPLES = 8192
_SEED = 17


def _direct_digest(app_name: str, workers: int) -> str:
    from repro.bench.runner import paper_app, paper_graph
    graph = paper_graph(_GRAPH, app_name, seed=_SEED)
    engine = NextDoorEngine(workers=workers)
    result = engine.run(paper_app(app_name), graph,
                        num_samples=_SAMPLES, seed=_SEED)
    return batch_digest(result.batch)


def _request(app_name: str = "k-hop", **overrides) -> SampleRequest:
    fields = dict(app=app_name, graph=_GRAPH, samples=_SAMPLES,
                  seed=_SEED, return_samples=False)
    fields.update(overrides)
    return SampleRequest(**fields)


def _result(name: str, problems: List[str],
            statistic: float = float("nan")) -> CheckResult:
    return CheckResult(name=name, suite=SUITE, family="serve",
                       passed=not problems, statistic=statistic,
                       detail="; ".join(problems))


def run_serve_checks(workers: Optional[int] = None,
                     seed: int = 0) -> List[CheckResult]:
    """All serving scenarios; ``workers`` defaults to 2 chunk
    threads."""
    del seed  # scenarios pin their seed: identity must be exact
    workers = workers if workers and workers >= 1 else 2
    results: List[CheckResult] = []
    direct = {app: _direct_digest(app, workers=0)
              for app in ("k-hop", "DeepWalk")}

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        config = ServerConfig(
            port=0, queue_capacity=8, executors=2, workers=workers,
            allow_test_hooks=True)
        with SamplingServer(config) as server:
            client = ServeClient(port=server.port)
            results.append(_check_parity(client, direct))
            results.append(_check_concurrent_identical(server, direct))
            results.append(_check_deadline_enqueue(client))
            results.append(_check_cancel_midrun(client, direct))
            results.append(_check_chunk_error(client, direct))
        results.append(_check_queue_full(direct))
        results.append(_check_drain(direct))
    return results


def _check_parity(client: ServeClient, direct) -> CheckResult:
    """Served bits == direct bits for both app families."""
    problems: List[str] = []
    for app, want in direct.items():
        r = client.sample(_request(app))
        if r.status != "ok":
            problems.append(f"{app}: status {r.status}")
        elif r.digest != want:
            problems.append(f"{app}: served {r.digest} != direct {want}")
    return _result("served_matches_direct", problems)


def _check_concurrent_identical(server: SamplingServer,
                                direct) -> CheckResult:
    """Five concurrent identical requests each run the engine once and
    each return the direct run's bits."""
    problems: List[str] = []
    before = get_metrics().counter("engine.runs").value
    outcomes: List = []

    def fire():
        outcomes.append(ServeClient(port=server.port).sample(
            _request("DeepWalk")))

    threads = [threading.Thread(target=fire) for _ in range(5)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    statuses = {r.status for r in outcomes}
    if statuses != {"ok"}:
        problems.append(f"statuses {sorted(statuses)}")
    digests = {r.digest for r in outcomes}
    if digests != {direct["DeepWalk"]}:
        problems.append(f"digests {sorted(digests)} != direct")
    ran = get_metrics().counter("engine.runs").value - before
    if ran != 5:
        problems.append(f"{ran:g} engine runs for 5 requests")
    return _result("concurrent_identical_each_run", problems, statistic=ran)


def _check_deadline_enqueue(client: ServeClient) -> CheckResult:
    """An already-expired deadline is rejected before any work."""
    problems: List[str] = []
    r = client.sample(_request(deadline_ms=0.0))
    if r.status != "deadline_exceeded":
        problems.append(f"status {r.status}")
    elif r.response.get("stage") != "enqueue":
        problems.append(f"stage {r.response.get('stage')!r}")
    return _result("deadline_rejected_at_enqueue", problems)


def _check_cancel_midrun(client: ServeClient, direct) -> CheckResult:
    """A deterministically-cancelled run reports deadline_exceeded at
    mid-run, and the next identical request is bit-perfect (partial
    work really was discarded)."""
    problems: List[str] = []
    cancelled = client.sample(
        _request(hooks={"cancel_after_checks": 2}))
    if cancelled.status != "deadline_exceeded":
        problems.append(f"cancel status {cancelled.status}")
    elif cancelled.response.get("stage") != "mid-run":
        problems.append(f"stage {cancelled.response.get('stage')!r}")
    clean = client.sample(_request())
    if clean.status != "ok" or clean.digest != direct["k-hop"]:
        problems.append("request after cancellation lost bit parity "
                        f"({clean.status}, {clean.digest})")
    return _result("midrun_cancel_then_clean", problems)


def _check_chunk_error(client: ServeClient, direct) -> CheckResult:
    """A chunk that raises fails its request with a structured error,
    and the next identical request is bit-perfect (the failed run left
    nothing behind)."""
    problems: List[str] = []
    failed = client.sample(
        _request(hooks={"fault_plan": "chunk-error:0.1"}))
    if failed.status != "error":
        problems.append(f"faulted status {failed.status}")
    elif "injected chunk error" not in str(failed.response.get("error")):
        problems.append(f"error {failed.response.get('error')!r}")
    clean = client.sample(_request())
    if clean.status != "ok" or clean.digest != direct["k-hop"]:
        problems.append("request after the chunk error lost bit parity "
                        f"({clean.status}, {clean.digest})")
    return _result("chunk_error_then_clean", problems)


def _check_queue_full(direct) -> CheckResult:
    """With no waiting room and the only executor busy, a request is
    rejected with an honest retry hint — twice in a row, identically —
    and succeeds bit-perfectly once capacity frees."""
    problems: List[str] = []
    config = ServerConfig(port=0, queue_capacity=0, executors=1,
                          workers=0, allow_test_hooks=True)
    with SamplingServer(config) as server:
        blocker_client = ServeClient(port=server.port)
        blocker_done: List = []

        def blocker():
            blocker_done.append(blocker_client.sample(
                _request(seed=_SEED + 1,
                         hooks={"sleep_before_ms": 1200})))

        t = threading.Thread(target=blocker)
        t.start()
        deadline = time.monotonic() + 5.0
        while (server.admission.inflight() == 0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        no_retry = ServeClient(port=server.port,
                               retry=RetryPolicy(max_attempts=1))
        rejections = [no_retry.sample(_request()) for _ in range(2)]
        for i, r in enumerate(rejections):
            if r.status != "rejected":
                problems.append(f"attempt {i}: status {r.status}")
            elif not r.response.get("retry_after_ms", 0) > 0:
                problems.append(f"attempt {i}: no positive retry-after")
        t.join()
        if not blocker_done or blocker_done[0].status != "ok":
            problems.append("blocking request did not finish ok")
        after = blocker_client.sample(_request())
        if after.status != "ok" or after.digest != direct["k-hop"]:
            problems.append("post-rejection request lost bit parity "
                            f"({after.status})")
        server.drain(timeout=5.0)
    return _result("queue_full_rejects_deterministically", problems)


def _check_drain(direct) -> CheckResult:
    """Drain finishes in-flight work (bit-perfect) and refuses new
    requests with a draining status."""
    problems: List[str] = []
    config = ServerConfig(port=0, queue_capacity=4, executors=1,
                          workers=0, allow_test_hooks=True)
    server = SamplingServer(config).start()
    client = ServeClient(port=server.port)
    inflight_done: List = []

    def inflight():
        inflight_done.append(client.sample(
            _request(hooks={"sleep_before_ms": 600})))

    t = threading.Thread(target=inflight)
    t.start()
    deadline = time.monotonic() + 5.0
    while (server.admission.inflight() == 0
           and time.monotonic() < deadline):
        time.sleep(0.01)
    server.begin_drain()
    refused = ServeClient(port=server.port,
                          retry=RetryPolicy(max_attempts=1)) \
        .sample(_request())
    if refused.status != "draining":
        problems.append(f"post-drain admit: {refused.status}")
    finished = server.drain(timeout=10.0)
    t.join()
    if not finished:
        problems.append("drain timed out with work in flight")
    if not inflight_done or inflight_done[0].status != "ok":
        problems.append("in-flight request did not survive the drain")
    elif inflight_done[0].digest != direct["k-hop"]:
        problems.append("drained request lost bit parity")
    return _result("drain_finishes_inflight", problems)
