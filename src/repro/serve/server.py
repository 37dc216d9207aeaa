"""The sampling daemon: HTTP front-end and admission gate.

Request path (docs/SERVING.md), all on the HTTP thread that parsed the
request::

    drain check                         503
    parse + validate                    400
    graph cache (warm)
    deadline at enqueue                 504
    gate.enter: waiting room full       429+Retry-After
                closed while waiting    503
                deadline while waiting  504 (dequeue)
    run on a warm graph
      (CancelScope between chunks)
      deadline mid-run                  504
    gate.leave
    respond

``--executors`` is the gate's slot count: how many requests run the
engine at once.

Robustness properties (``tests/test_serve.py``, ``--suite identity``):

* the waiting room is bounded — saturation produces explicit 429s
  with an honest ``Retry-After``, never unbounded queueing;
* deadlines are enforced at enqueue, at dequeue, and between chunks;
  a cancelled run discards partial work and is accounted in
  ``serve.deadline_exceeded``;
* a chunk that raises fails its request with a structured error, and
  the next identical request returns the fault-free bits;
* SIGTERM drains gracefully: stop admitting (503), finish in-flight
  requests, flush the stats snapshot, exit 0.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional

from repro.obs import get_metrics, openmetrics_text, trace, write_openmetrics
from repro.runtime.cancel import CancelledRun, CancelScope, DeadlineExceeded
from repro.runtime.context import retain_freed_memory
from repro.serve.admission import AdmissionGate, GateClosed, QueueFull
from repro.serve.cache import GraphCache
from repro.serve.protocol import (STATUS_HTTP, SampleRequest,
                                  batch_digest, encode_batch, response_body)

__all__ = ["ServerConfig", "SamplingServer"]


@dataclass
class ServerConfig:
    """Daemon configuration (CLI flags map 1:1, see ``repro serve``)."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = pick an ephemeral port
    #: Bounded waiting room (0 = reject unless a run slot is idle).
    queue_capacity: int = 16
    #: Concurrent engine runs (the admission gate's run slots).
    executors: int = 2
    #: Chunk threads per engine run (0 = the run's own thread only).
    workers: int = 0
    #: Deadline applied when a request carries none (None = unbounded).
    default_deadline_ms: Optional[float] = None
    #: Seconds the drain waits for in-flight requests on SIGTERM.
    drain_timeout_s: float = 30.0
    #: OpenMetrics snapshot written after the drain (None = skip).
    stats_out: Optional[str] = None
    #: Accept per-request test hooks (fault_plan, cancel_after_checks,
    #: sleep_before_ms) — verify suite + CI only.
    allow_test_hooks: bool = False


class SamplingServer:
    """The daemon.  ``start()``/``stop()`` or use as a context
    manager; ``repro serve`` wraps it with signal handling."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self.cache = GraphCache()
        self.admission = AdmissionGate(self.config.queue_capacity,
                                       self.config.executors)
        self.metrics = get_metrics()
        self._ids = itertools.count(1)
        self._draining = threading.Event()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._started_at = time.monotonic()

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("server not started")
        return self._httpd.server_address[1]

    def start(self) -> "SamplingServer":
        retain_freed_memory()  # before a handler thread makes an arena
        handler = _make_handler(self)

        class _Server(ThreadingHTTPServer):
            # Open-loop bursts (the serving benchmark fires hundreds of
            # connections at their scheduled instants) overflow the
            # default listen backlog of 5 and surface as connection
            # resets at the client — a transport artifact, not the
            # admission gate's explicit backpressure.
            request_queue_size = 128

        self._httpd = _Server(
            (self.config.host, self.config.port), handler)
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http",
            daemon=True)
        self._http_thread.start()
        self.metrics.gauge("serve.draining").set(0)
        return self

    def __enter__(self) -> "SamplingServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def begin_drain(self) -> None:
        """Stop admitting; in-flight and queued requests still finish."""
        if self._draining.is_set():
            return
        self._draining.set()
        self.metrics.gauge("serve.draining").set(1)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: drain, flush stats, stop.  Returns
        whether everything in flight finished inside the timeout.  The
        listener stops even when the stats flush raises."""
        self.begin_drain()
        if timeout is None:
            timeout = self.config.drain_timeout_s
        try:
            finished = self.admission.wait_drained(timeout=timeout)
            self.admission.close()
            if self.config.stats_out:
                write_openmetrics(self.config.stats_out)
        finally:
            self.stop()
        return finished

    def stop(self) -> None:
        """Hard stop: close the gate, which answers every waiting
        request 503 and returns once the waiting room is empty, then
        the HTTP listener.  Running requests are not waited for."""
        self.admission.close()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()

    # -- request handling (HTTP threads) -------------------------------

    def handle_sample(self, body: bytes) -> Dict[str, Any]:
        """Full request path; returns the response dict (its
        ``status`` picks the HTTP code)."""
        request_id = next(self._ids)
        t_arrival = time.monotonic()
        if self._draining.is_set():
            return self._reject(request_id, "default", "draining",
                                status="draining")
        try:
            request = SampleRequest.from_json(
                body, allow_test_hooks=self.config.allow_test_hooks)
        except ValueError as exc:
            return self._bad_request(request_id, str(exc))
        from repro.bench.runner import APP_FACTORIES, walk_sample_count
        if request.app not in APP_FACTORIES:
            return self._bad_request(
                request_id, f"unknown app {request.app!r}; choose from "
                f"{', '.join(sorted(APP_FACTORIES))}", request)
        try:
            graph, cache_hit = self.cache.resolve(
                request.graph, request.app, request.seed)
        except (ValueError, OSError) as exc:
            return self._bad_request(request_id, str(exc), request)
        num_samples = request.samples
        if num_samples is None:
            num_samples = walk_sample_count(graph, request.app)

        scope = self._scope_for(request, t_arrival)
        if scope is not None and scope.expired():
            return self._deadline(request_id, request, "enqueue")

        t_enter = time.monotonic()
        try:
            self.admission.enter(scope)
        except QueueFull as exc:
            return self._reject(request_id, request.tenant, "queue full",
                                retry_after_s=exc.retry_after_s,
                                app=request.app)
        except GateClosed:
            return self._reject(request_id, request.tenant, "draining",
                                status="draining")
        except DeadlineExceeded:
            return self._deadline(request_id, request, "dequeue")
        queue_wait = time.monotonic() - t_enter
        try:
            self.metrics.gauge("serve.queue_depth").set(
                self.admission.depth())
            response = self._execute(request, request_id, scope, graph,
                                     num_samples, queue_wait)
        except Exception as exc:
            response = self._error(request, request_id,
                                   f"internal: {exc!r}")
        finally:
            self.admission.leave()
            self.metrics.gauge("serve.queue_depth").set(
                self.admission.depth())
        response["cache_hit"] = cache_hit
        return response

    def _scope_for(self, request: SampleRequest,
                   t_arrival: float) -> Optional[CancelScope]:
        deadline_ms = request.deadline_ms
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        trip_after = request.hooks.get("cancel_after_checks")
        if deadline_ms is None and trip_after is None:
            return None
        deadline = None if deadline_ms is None else \
            t_arrival + deadline_ms / 1000.0
        return CancelScope(deadline=deadline,
                           trip_after_checks=trip_after)

    # -- response helpers ----------------------------------------------

    def _count(self, status: str, tenant: str, app: str) -> None:
        self.metrics.counter("serve.requests", labels={
            "tenant": tenant, "app": app, "status": status}).inc()

    def _reject(self, request_id: int, tenant: str, why: str,
                retry_after_s: Optional[float] = None,
                status: str = "rejected",
                app: str = "-") -> Dict[str, Any]:
        if status == "rejected":
            self.metrics.counter("serve.rejected").inc()
        self._count(status, tenant, app)
        response = {"status": status, "request_id": request_id, "error": why}
        if retry_after_s is not None:
            response["retry_after_ms"] = round(retry_after_s * 1000.0, 3)
        return response

    def _bad_request(self, request_id: int, error: str,
                     request: Optional[SampleRequest] = None
                     ) -> Dict[str, Any]:
        tenant, app = ((request.tenant, request.app) if request
                       else ("default", "-"))
        self._count("bad_request", tenant, app)
        return {"status": "bad_request", "request_id": request_id,
                "error": error}

    def _deadline(self, request_id: int, request: SampleRequest,
                  stage: str) -> Dict[str, Any]:
        self.metrics.counter("serve.deadline_exceeded").inc()
        self._count("deadline_exceeded", request.tenant, request.app)
        return {"status": "deadline_exceeded",
                "request_id": request_id, "stage": stage,
                "error": f"deadline exceeded at {stage}"}

    # -- the run -------------------------------------------------------

    def _execute(self, request: SampleRequest, request_id: int,
                 scope: Optional[CancelScope], graph, num_samples: int,
                 queue_wait: float) -> Dict[str, Any]:
        from repro.bench.runner import paper_app
        from repro.core.engine import NextDoorEngine
        from repro.runtime.faults import FaultInjected, FaultPlan

        self.metrics.histogram("serve.queue_wait_seconds").observe(
            queue_wait)
        sleep_ms = request.hooks.get("sleep_before_ms")
        t0 = time.monotonic()
        try:
            if sleep_ms:
                time.sleep(float(sleep_ms) / 1000.0)
            engine = NextDoorEngine(workers=self.config.workers)
            engine.cancel = scope
            # Test hook: this request's own fault plan; a typo is a
            # ValueError, answered as bad_request.
            engine.fault_plan = FaultPlan.parse(
                request.hooks.get("fault_plan"))
            app = paper_app(request.app)
            with trace.span("serve.request", app=request.app,
                            tenant=request.tenant,
                            samples=num_samples):
                result = engine.run(app, graph, num_samples=num_samples,
                                    seed=request.seed)
        except CancelledRun:
            return self._deadline(request_id, request, "mid-run")
        except FaultInjected as exc:
            return self._error(request, request_id, f"injected fault: {exc}")
        except ValueError as exc:
            return self._bad_request(request_id, str(exc), request)
        except Exception as exc:
            return self._error(request, request_id, f"run failed: {exc!r}")
        finally:
            service = time.monotonic() - t0
            self.admission.observe_service(service)
            self.metrics.histogram(
                "serve.request_seconds",
                labels={"app": request.app}).observe(service)

        wall_ms = round((time.monotonic() - t0) * 1000.0, 3)
        self._count("ok", request.tenant, request.app)
        response: Dict[str, Any] = {
            "status": "ok",
            "request_id": request_id,
            "app": request.app,
            "graph": getattr(graph, "name", request.graph),
            "samples": num_samples,
            "seed": request.seed,
            "digest": batch_digest(result.batch),
            "queue_wait_ms": round(queue_wait * 1000.0, 3),
            "wall_ms": wall_ms,
        }
        if request.return_samples:
            response["arrays"] = encode_batch(result)
        return response

    def _error(self, request: SampleRequest, request_id: int,
               message: str) -> Dict[str, Any]:
        self.metrics.counter("serve.errors").inc()
        self._count("error", request.tenant, request.app)
        return {"status": "error", "request_id": request_id,
                "error": message}

    # -- introspection -------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining.is_set() else "ok",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "queue_depth": self.admission.depth(),
            "inflight": self.admission.inflight(),
            "queue_capacity": self.config.queue_capacity,
            "executors": self.config.executors,
            "workers": self.config.workers,
            "cached_graphs": self.cache.size(),
        }


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------

def _make_handler(server: "SamplingServer"):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt, *args):  # quiet by default
            pass

        def _respond(self, code: int, payload: bytes,
                     content_type: str = "application/json",
                     headers: Optional[Dict[str, str]] = None) -> None:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            # Head and body leave in one write: on a keep-alive
            # connection a second small write is held back (Nagle) until
            # the client's delayed ACK of the first, ~40 ms a request.
            self._headers_buffer.append(b"\r\n")
            self._headers_buffer.append(payload)
            self.flush_headers()

        def _respond_json(self, response: Dict[str, Any]) -> None:
            code = STATUS_HTTP.get(response.get("status", "error"), 500)
            headers = {}
            retry_ms = response.get("retry_after_ms")
            if retry_ms is not None:
                headers["Retry-After"] = str(
                    max(1, math.ceil(retry_ms / 1000.0)))
            self._respond(code, response_body(response), headers=headers)

        def _refuse(self, error: str, **headers: str) -> None:
            self._respond(400, response_body({"status": "bad_request",
                                              "error": error}),
                          headers=headers)

        def do_POST(self):
            length = self.headers.get("Content-Length", "0")
            if not length.isdecimal():  # where the body ends is unknown
                self._refuse("Content-Length must be an integer >= 0",
                             Connection="close")
                return
            body = self.rfile.read(int(length))
            if self.path != "/v1/sample":
                self._refuse(f"no such endpoint {self.path}")
                return
            try:
                self._respond_json(server.handle_sample(body))
            except BrokenPipeError:  # client went away mid-response
                pass

        def do_GET(self):
            if self.path == "/healthz":
                self._respond(200,
                              json.dumps(server.health()).encode())
            elif self.path == "/metrics":
                text = openmetrics_text(get_metrics())
                self._respond(200, text.encode("utf-8"),
                              content_type="application/openmetrics-"
                                           "text; version=1.0.0")
            else:
                self._refuse(f"no such endpoint {self.path}")

    return Handler
