"""The serve layer as its client sees it.

``repro serve`` runs as a subprocess; one generator process drives it
with at most ``nproc`` sender threads.  Each request opens its own
connection, as ``repro.serve.client.ServeClient`` (urllib) does, and is
timed from the instant it was *due*.  In-process probes time the
protocol functions and ``SamplingServer.handle_sample`` directly.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from repro.serve.protocol import (SampleRequest, batch_digest, decode_arrays,
                                  encode_batch)
from repro.serve.server import SamplingServer, ServerConfig

import quant
from inproc import REQUEST_CLASSES, request_samples

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                       "..", "..", "src"))

#: Open-loop phases: arrivals per second.  Two closed-loop clients
#: sustain about 50 requests/s on the 2-core reference host, so ``base``
#: is light, ``load`` is busy and ``over`` is past capacity: its backlog
#: (and ``bench.sender_late_ms``) grows for as long as it runs.
RATES = {"base": 10.0, "load": 40.0, "over": 55.0}

#: Latency limit for ``serve.max_rate_within_limit_rps``.
LIMIT_TAIL_MS = 500.0
LIMIT_FAILED_SHARE = 0.01

_LISTENING = re.compile(r"listening on http://[^:\s]+:(\d+)")


class Daemon:
    """``python -m repro serve`` as a child process, always reaped."""

    def __init__(self, cache_dir: str, backend: str = "numpy",
                 workers: int = 0) -> None:
        self.backend, self.workers = backend, workers
        self.env = dict(os.environ, PYTHONPATH=SRC_DIR,
                        XDG_CACHE_HOME=cache_dir, REPRO_BACKEND=backend)
        self.output: List[str] = []
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.start_s = 0.0
        self.clean_exit = False
        self._drain: Optional[threading.Thread] = None

    def __enter__(self) -> "Daemon":
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--executors", "2", "--queue-capacity", "16",
             "--workers", str(self.workers)],
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        try:
            while True:
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("daemon exited before listening:\n"
                                       + "".join(self.output))
                self.output.append(line)
                found = _LISTENING.search(line)
                if found:
                    self.port = int(found.group(1))
                    break
        except BaseException:
            self._reap()
            raise
        self.start_s = time.perf_counter() - t0
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()
        return self

    def _read_rest(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)

    def __exit__(self, *exc) -> None:
        self._reap()

    def _reap(self) -> None:
        """SIGTERM, wait for the drain, kill if it does not come."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=5)
        proc.stdout.close()
        self.clean_exit = (proc.returncode == 0 and any(
            "drained cleanly" in line for line in self.output))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def scrape(self) -> Dict[str, float]:
        """Counters of the daemon's ``/metrics`` the ledger reports."""
        from repro.obs.openmetrics import parse_openmetrics
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        samples = parse_openmetrics(text)

        def total(name: str) -> float:
            return sum(samples.get(name, {}).values())

        return {"cache_hits": total("serve_cache_hits_total"),
                "cache_misses": total("serve_cache_misses_total"),
                "coalesced": total("serve_requests_coalesced_total")}


def request_body(cls: str, i: int, seed: int) -> bytes:
    app, _, payload = REQUEST_CLASSES[cls]
    request = SampleRequest(app=app, graph="ppi",
                            samples=request_samples(cls, i), seed=seed,
                            return_samples=payload)
    return json.dumps(request.to_json()).encode("utf-8")


def send(port: int, cls: str, i: int, seed: int, due: Optional[float] = None,
         conn: Optional[http.client.HTTPConnection] = None) -> dict:
    """One request on its own connection (or on ``conn``, kept alive).
    Never raises: a transport failure is a failed operation."""
    body = request_body(cls, i, seed)
    sent = time.perf_counter()
    row = {"cls": cls, "i": i, "due": sent if due is None else due,
           "sent": sent, "status": "transport_error", "bytes": 0}
    own = conn is None
    try:
        if own:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        conn.request("POST", "/v1/sample", body=body, headers={
            "Content-Type": "application/json",
            "Connection": "close" if own else "keep-alive"})
        raw = conn.getresponse().read()
        row["http_done"] = time.perf_counter()
        response = json.loads(raw.decode("utf-8"))
        if "arrays" in response:
            decode_arrays(response["arrays"])
        row.update(status=response.get("status", "error"), bytes=len(raw),
                   digest=response.get("digest"),
                   queue_wait_ms=response.get("queue_wait_ms", 0.0),
                   wall_ms=response.get("wall_ms", 0.0),
                   coalesced=bool(response.get("coalesced")))
    except (OSError, http.client.HTTPException, ValueError) as exc:
        row["error"] = repr(exc)
        row.setdefault("http_done", time.perf_counter())
    finally:
        if own and conn is not None:
            conn.close()
    row["done"] = time.perf_counter()
    row.update(quant.account(row["due"], row["sent"], row["done"]))
    return row


def open_loop(port: int, seed: int, cycle: List[str], rate: float,
              count: int, senders: int) -> List[dict]:
    """``count`` Poisson arrivals at ``rate``, sent by ``senders``
    threads that take the next due request as soon as they are free."""
    due = quant.poisson_schedule(seed, rate, count)
    rows: List[Optional[dict]] = [None] * count
    lock, cursor = threading.Lock(), [0]
    start = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= count:
                return
            wait = start + due[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            rows[i] = send(port, cycle[i % len(cycle)], i, seed,
                           due=start + due[i])

    _run_threads(sender, senders)
    return rows


def closed_loop(port: int, seed: int, cycle: List[str], clients: int,
                seconds: float) -> Dict[str, object]:
    """``clients`` back-to-back senders for ``seconds``, taking the next
    request of the cycle from one shared cursor so the mix served stays
    the declared one however unequal the classes' costs."""
    rows: List[dict] = []
    lock, cursor = threading.Lock(), [0]
    start = time.perf_counter()
    deadline = start + seconds

    def client() -> None:
        while time.perf_counter() < deadline:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            row = send(port, cycle[i % len(cycle)], i, seed)
            with lock:
                rows.append(row)

    _run_threads(client, clients)
    wall = time.perf_counter() - start
    return {"rows": rows, "wall_s": wall,
            "rps": sum(r["status"] == "ok" for r in rows) / wall}


def cycle_pass(port: int, seed: int, cycle: List[str], k: int) -> List[dict]:
    """Pass ``k`` over the cycle, one client sending back to back."""
    n = len(cycle)
    return [send(port, cycle[i % n], i, seed) for i in range(k * n, k * n + n)]


def passes(rows: List[dict], length: int) -> List[Dict[str, float]]:
    """Per complete pass over the cycle, for rows one client sent back
    to back (the trailing partial pass is dropped): samples delivered
    per second and the median request latency.  Every pass holds the
    same mix, so passes are repetitions of the same work."""
    rows = sorted(rows, key=lambda r: r["i"])
    out = []
    for k in range(0, len(rows) - length + 1, length):
        chunk = rows[k:k + length]
        out.append({
            "start": chunk[0]["sent"], "end": chunk[-1]["done"],
            "samples_per_s":
                sum(request_samples(r["cls"], r["i"]) for r in chunk)
                / (chunk[-1]["done"] - chunk[0]["sent"]),
            "latency_ms": quant.median([r["latency_ms"] for r in chunk])})
    return out


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def warm(daemon: Daemon, seed: int, cycle: List[str]) -> Dict[str, dict]:
    """The first request of each class (graph loads, caches, lazy
    imports): its response, by class."""
    first = {}
    for i, cls in enumerate(cycle):
        if cls not in first:
            first[cls] = send(daemon.port, cls, i, seed)
    return first


def keepalive_ms(port: int, seed: int, cycle: List[str], count: int) -> float:
    """Median latency of the payload-free k-hop class on one persistent
    connection: what a pooling client sees, including any stall between
    the daemon's separate header and body writes."""
    i = cycle.index("khop")
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        rows = [send(port, "khop", i, seed, conn=conn)
                for _ in range(count)]
    finally:
        conn.close()
    return quant.median([r["latency_ms"] for r in rows[1:] or rows])


def summarize_phase(rows: List[dict]) -> Dict[str, float]:
    """Latency from the due time over every request of a phase; the
    daemon-side numbers over the ``ok`` ones (zeros if there were none,
    which the gate reports as a failure anyway)."""
    ok = [r for r in rows if r["status"] == "ok"] or [
        {"queue_wait_ms": 0.0, "wall_ms": 0.0, "latency_ms": 0.0}]
    lat = [r["latency_ms"] for r in rows]
    late = [r["sender_late_ms"] for r in rows]
    return {"sent": len(rows),
            "failed_share": sum(r["status"] != "ok" for r in rows) / len(rows),
            "p50": quant.median(lat), "tail": quant.tail(lat),
            "late_p50": quant.median(late), "late_tail": quant.tail(late),
            "queue_wait_tail": quant.tail([r["queue_wait_ms"] for r in ok]),
            "service_p50": quant.median([r["wall_ms"] for r in ok]),
            "overhead_p50": quant.median(
                [r["latency_ms"] - r["queue_wait_ms"] - r["wall_ms"]
                 for r in ok])}


def count_status(rows: List[dict]) -> Dict[str, int]:
    return {"sent": len(rows),
            "ok": sum(r["status"] == "ok" for r in rows),
            "rejected": sum(r["status"] == "rejected" for r in rows),
            "deadline": sum(r["status"] == "deadline_exceeded"
                            for r in rows),
            "errors": sum(r["status"] not in ("ok", "rejected",
                                              "deadline_exceeded")
                          for r in rows)}


def spans_of(rec, rows: List[dict], run: str) -> None:
    """Per request: ``client.request`` (due -> done) containing
    ``client.sender_wait``, ``client.http`` (itself containing the
    synthetic ``serve.queue_wait`` / ``serve.service`` the response
    reports) and ``client.decode``."""
    for r in rows:
        rid = f"{run}:{r['i']}"
        top = rec.add("client.request", r["due"], r["done"], None, rid)
        rec.add("client.sender_wait", r["due"], r["sent"], top, rid)
        http = rec.add("client.http", r["sent"], r["http_done"], top, rid)
        if r["status"] == "ok":
            # Placed back from the end of the exchange; the response
            # carries durations, not the daemon's clock.
            service_from = r["http_done"] - r["wall_ms"] / 1e3
            rec.add("serve.service", service_from, r["http_done"], http, rid)
            rec.add("serve.queue_wait",
                    service_from - r["queue_wait_ms"] / 1e3, service_from,
                    http, rid)
        rec.add("client.decode", r["http_done"], r["done"], top, rid)


# ----------------------------------------------------------------------
# In-process probes of the serve layer
# ----------------------------------------------------------------------

def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t) * 1e3)
    return quant.median(times)


def protocol_probes(seed: int, cycle: List[str], payload_result,
                    repeats: int) -> Dict[str, float]:
    """Parse, digest, encode and decode of the k-hop payload class, and
    the whole request path without HTTP (``handle_sample``)."""
    i = cycle.index("khop")
    body = request_body("khop", i, seed)
    encoded = encode_batch(payload_result)
    out = {
        "serve.parse_us": _median_ms(
            lambda: SampleRequest.from_json(body), repeats * 10) * 1e3,
        "serve.digest_ms": _median_ms(
            lambda: batch_digest(payload_result.batch), repeats),
        "serve.encode_ms": _median_ms(
            lambda: encode_batch(payload_result), repeats),
        "serve.decode_ms": _median_ms(
            lambda: decode_arrays(encoded), repeats),
    }
    server = SamplingServer(ServerConfig(port=0, executors=2,
                                         queue_capacity=16, workers=0))
    server.start()
    try:
        server.handle_sample(body)
        out["serve.handle_sample_ms_p50"] = _median_ms(
            lambda: server.handle_sample(body), repeats)
    finally:
        server.stop()
    return out
