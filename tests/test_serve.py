"""Sampling daemon (repro.serve): protocol, admission gate, cache,
cancellation, client retry, and the HTTP server.

The heavyweight end-to-end scenarios (worker kill under load, drain)
live in ``repro verify --suite serve`` (repro/verify/serve.py); these
tests pin the component contracts.
"""

import base64
import hashlib
import io
import json
import socket
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.engine import NextDoorEngine
from repro.obs import get_metrics
from repro.runtime.cancel import CancelledRun, CancelScope, DeadlineExceeded
from repro.serve.admission import AdmissionGate, GateClosed, QueueFull
from repro.serve.cache import GraphCache
from repro.serve.client import ClientResult, RetryPolicy, ServeClient
from repro.serve.protocol import (SampleRequest, batch_digest,
                                  decode_array, decode_arrays,
                                  encode_array, encode_batch,
                                  response_body)
from repro.serve.server import SamplingServer, ServerConfig
from repro.verify.golden import GOLDEN_CASES


class TestCancelScope:
    def test_unset_scope_never_trips(self):
        scope = CancelScope()
        for i in range(100):
            scope.check(f"site {i}")
        assert not scope.cancelled
        assert scope.remaining() is None

    def test_deadline_trips_as_deadline_exceeded(self):
        scope = CancelScope(deadline=time.monotonic() - 0.001)
        assert scope.expired()
        with pytest.raises(DeadlineExceeded):
            scope.check("between chunks")

    def test_explicit_cancel(self):
        scope = CancelScope()
        scope.cancel("client went away")
        assert scope.cancelled
        with pytest.raises(CancelledRun, match="client went away"):
            scope.check("anywhere")

    def test_trip_after_checks_is_deterministic(self):
        scope = CancelScope(trip_after_checks=3)
        scope.check("one")
        scope.check("two")
        with pytest.raises(CancelledRun):
            scope.check("three")

    def test_after_constructor(self):
        scope = CancelScope.after(60.0)
        assert 59.0 < scope.remaining() <= 60.0
        assert not scope.expired()


class TestProtocol:
    def test_round_trip(self):
        req = SampleRequest(app="DeepWalk", graph="ppi", samples=64,
                            seed=3, tenant="t1", deadline_ms=500.0)
        body = json.dumps(req.to_json()).encode()
        back = SampleRequest.from_json(body)
        assert back == req

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            SampleRequest.from_json(
                json.dumps({"app": "DeepWalk", "graph": "ppi",
                            "bogus": 1}).encode())

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"'seed' must be an integer >= 0"):
            SampleRequest.from_json(
                json.dumps({"app": "DeepWalk", "graph": "ppi",
                            "seed": -1}).encode())

    @pytest.mark.parametrize("deadline", ["NaN", "Infinity", "1e400"])
    def test_non_finite_deadline_rejected(self, deadline):
        body = f'{{"app": "DeepWalk", "deadline_ms": {deadline}}}'.encode()
        with pytest.raises(ValueError, match="finite number >= 0"):
            SampleRequest.from_json(body)

    def test_hooks_rejected_without_opt_in(self):
        body = json.dumps({"app": "DeepWalk", "graph": "ppi",
                           "sleep_before_ms": 50}).encode()
        with pytest.raises(ValueError, match="test hook"):
            SampleRequest.from_json(body)
        req = SampleRequest.from_json(body, allow_test_hooks=True)
        assert req.hooks == {"sleep_before_ms": 50}

    def test_array_encoding_exact(self):
        arr = np.arange(12, dtype=np.int64).reshape(3, 4)
        back = decode_array(encode_array(arr))
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)

    def test_batch_digest_matches_chaos_algorithm(self, medium_graph):
        from repro.api.apps import KHop
        from repro.core.engine import NextDoorEngine
        result = NextDoorEngine(workers=0).run(
            KHop(fanouts=(3, 2)), medium_graph, num_samples=32, seed=5)
        d1 = batch_digest(result.batch)
        again = NextDoorEngine(workers=0).run(
            KHop(fanouts=(3, 2)), medium_graph, num_samples=32, seed=5)
        assert batch_digest(again.batch) == d1
        arrays = decode_arrays(encode_batch(result))
        assert np.array_equal(arrays["roots"], result.batch.roots)


def _np_save_b64(arr):
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=True)
    return base64.b64encode(buf.getvalue()).decode()


def _tobytes_digest(batch):
    """``batch_digest`` as it was written over ``tobytes`` copies."""
    h = hashlib.sha256()
    for arr in [batch.roots, *batch.step_vertices, *batch.edges]:
        a = np.ascontiguousarray(arr)
        h.update(str(a.shape).encode())
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()[:32]


_CODEC_ARRAYS = {
    "int64-S1": np.arange(64, dtype=np.int64).reshape(64, 1),
    "int64-S25": np.arange(64 * 25, dtype=np.int64).reshape(64, 25),
    "empty-0x3": np.zeros((0, 3), dtype=np.int64),
    "bool": np.arange(10) % 3 == 0,
    "float64": np.linspace(0.0, 1.0, 17),
    "transposed": np.arange(24, dtype=np.int64).reshape(4, 6).T,
}


class TestPayloadCodec:
    @pytest.mark.parametrize("name", sorted(_CODEC_ARRAYS))
    def test_encode_is_np_save_and_decode_is_exact(self, name):
        arr = _CODEC_ARRAYS[name]
        blob = encode_array(arr)
        assert blob == _np_save_b64(np.ascontiguousarray(arr))
        back = decode_array(blob)
        assert back.flags.writeable
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_decode_honours_fortran_order(self):
        arr = np.asfortranarray(np.arange(12, dtype=np.int32).reshape(3, 4))
        back = decode_array(_np_save_b64(arr))
        assert back.flags.writeable and np.array_equal(back, arr)

    @pytest.mark.parametrize("bad", ["object", "truncated", "trailing"])
    def test_bad_blob_raises_naming_the_array(self, bad):
        npy = base64.b64decode(encode_array(np.arange(10)))
        blob = {"object": _np_save_b64(np.array([1, "a"], dtype=object)),
                "truncated": base64.b64encode(npy[:-8]).decode(),
                "trailing": base64.b64encode(npy + bytes(8)).decode()}[bad]
        with pytest.raises(ValueError, match="array 'roots'"):
            decode_arrays({"roots": blob})

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_batch_digest_equals_tobytes_digest(self, case, medium_graph,
                                                medium_weighted):
        factory, weighted, seed = GOLDEN_CASES[case]
        batch = NextDoorEngine(workers=0).run(
            factory(), medium_weighted if weighted else medium_graph,
            num_samples=32, seed=seed).batch
        assert batch_digest(batch) == _tobytes_digest(batch)

    def test_batch_digest_of_non_contiguous_arrays(self):
        grid = np.arange(60, dtype=np.int64).reshape(6, 10)
        batch = SimpleNamespace(roots=np.arange(6),
                                step_vertices=[grid[:, ::2], grid.T],
                                edges=[grid[::2]])
        assert batch_digest(batch) == _tobytes_digest(batch)


def _until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert predicate()


def _waiter(gate, scope=None, granted=None, name=None):
    """Enter ``gate`` on a thread, which appends ``name`` to
    ``granted`` on entry and leaves at once; returns (thread, outcome
    list holding "granted" or the exception)."""
    outcome = []

    def run():
        try:
            gate.enter(scope)
        except Exception as exc:
            outcome.append(exc)
            return
        if granted is not None:
            granted.append(name)
        outcome.append("granted")
        gate.leave()

    t = threading.Thread(target=run)
    t.start()
    return t, outcome


class TestAdmissionQueue:
    def test_capacity_bounds_waiting_room(self):
        gate = AdmissionGate(capacity=2, executors=1)
        gate.enter()  # takes the idle slot
        waiters = [_waiter(gate) for _ in range(2)]
        _until(lambda: gate.depth() == 2)
        with pytest.raises(QueueFull) as excinfo:
            gate.enter()
        assert excinfo.value.retry_after_s > 0
        gate.leave()
        for t, outcome in waiters:
            t.join(timeout=5.0)
            assert outcome == ["granted"]

    def test_idle_executors_admit_beyond_zero_capacity(self):
        gate = AdmissionGate(capacity=0, executors=2)
        gate.enter()
        gate.enter()  # the second idle slot
        assert gate.inflight() == 2 and gate.depth() == 0
        with pytest.raises(QueueFull):
            gate.enter()
        gate.leave()
        gate.enter()  # a freed slot admits again

    def test_fifo_order(self):
        gate = AdmissionGate(capacity=8, executors=1)
        gate.enter()
        granted, threads = [], []
        for i, name in enumerate(("a", "b", "c")):
            threads.append(_waiter(gate, granted=granted, name=name)[0])
            _until(lambda: gate.depth() == i + 1)
        gate.leave()
        for t in threads:
            t.join(timeout=5.0)
        assert granted == ["a", "b", "c"]

    def test_retry_after_scales_with_backlog(self):
        gate = AdmissionGate(capacity=100, executors=1)
        gate.observe_service(2.0)
        base = gate.retry_after_s()
        gate.enter()
        waiters = [_waiter(gate) for _ in range(3)]
        _until(lambda: gate.depth() == 3)
        assert gate.retry_after_s() > base
        gate.leave()
        for t, _ in waiters:
            t.join(timeout=5.0)

    def test_ewma_tracks_service_time(self):
        gate = AdmissionGate(capacity=1, executors=1)
        for _ in range(50):
            gate.observe_service(1.0)
        assert gate.service_estimate() == pytest.approx(1.0, rel=0.05)

    def test_close_wakes_and_refuses(self):
        gate = AdmissionGate(capacity=4, executors=1)
        gate.enter()
        waiters = [_waiter(gate) for _ in range(2)]
        _until(lambda: gate.depth() == 2)
        gate.close()  # returns once the waiting room is empty
        assert gate.depth() == 0 and gate.inflight() == 1
        for t, outcome in waiters:
            t.join(timeout=5.0)
            assert len(outcome) == 1 and isinstance(outcome[0], GateClosed)
        with pytest.raises(GateClosed, match="draining"):
            gate.enter()
        gate.leave()

    def test_drained_accounting(self):
        gate = AdmissionGate(capacity=4, executors=1)
        assert gate.wait_drained(timeout=0)
        gate.enter()
        t, _ = _waiter(gate)
        _until(lambda: gate.depth() == 1)
        assert not gate.wait_drained(timeout=0.01)  # running + waiting
        gate.leave()
        t.join(timeout=5.0)
        assert gate.wait_drained(timeout=0.1)

    def test_expired_waiter_leaves_the_room(self):
        gate = AdmissionGate(capacity=1, executors=1)
        gate.enter()
        t0 = time.monotonic()
        t, outcome = _waiter(gate, scope=CancelScope.after(0.1))
        t.join(timeout=5.0)
        assert 0.05 < time.monotonic() - t0 < 1.0
        assert len(outcome) == 1
        assert isinstance(outcome[0], DeadlineExceeded)
        assert gate.depth() == 0  # its place is free again
        t, outcome = _waiter(gate, scope=CancelScope(  # a finite deadline
            deadline=time.monotonic() + 1e300))       # too far to wait on
        _until(lambda: gate.depth() == 1)
        gate.leave()
        t.join(timeout=5.0)
        assert outcome == ["granted"]

    def test_threads_never_exceed_the_slots(self):
        """More threads than cores hammer a 2-slot gate with a short
        switch interval: never more than 2 run at once, every thread
        gets its turn, and the gate ends empty."""
        gate = AdmissionGate(capacity=64, executors=2)
        lock, running, peak, done = threading.Lock(), [0], [0], []

        def work():
            for _ in range(20):
                gate.enter()
                with lock:
                    running[0] += 1
                    peak[0] = max(peak[0], running[0])
                time.sleep(0)
                with lock:
                    running[0] -= 1
                gate.leave()
            done.append(1)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(old)
        assert len(done) == 16 and peak[0] == 2
        assert gate.inflight() == 0 and gate.depth() == 0


class TestGraphCache:
    def test_dataset_hit_returns_the_same_graph(self):
        cache = GraphCache()
        g1, hit1 = cache.resolve("ppi", "k-hop", seed=0)
        g2, hit2 = cache.resolve("ppi", "k-hop", seed=0)
        assert not hit1 and hit2
        assert g1 is g2

    def test_weighted_apps_get_separate_entry(self):
        cache = GraphCache()
        unweighted, _ = cache.resolve("ppi", "k-hop", seed=0)
        weighted, _ = cache.resolve("ppi", "DeepWalk", seed=0)
        assert unweighted is not weighted
        assert cache.size() == 2

    def test_file_key_tracks_content(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        cache = GraphCache()
        _, hit = cache.resolve(str(path), "k-hop", seed=0)
        assert not hit
        _, hit = cache.resolve(str(path), "k-hop", seed=0)
        assert hit
        path.write_text("0 1\n1 2\n2 3\n3 0\n")  # rewritten in place
        _, hit = cache.resolve(str(path), "k-hop", seed=0)
        assert not hit  # stale bytes must not be served

    def test_unknown_graph_is_readable_error(self):
        with pytest.raises(ValueError, match="unknown graph"):
            GraphCache().resolve("no-such-graph", "k-hop", seed=0)


class TestRetryPolicy:
    def test_delays_bounded_and_deterministic(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.1,
                             max_delay_s=0.5, jitter=0.25, seed=7)
        d1 = list(policy.delays())
        d2 = list(policy.delays())
        assert d1 == d2  # seeded
        assert len(d1) == 4
        assert all(d <= 0.5 * 1.25 for d in d1)

    def test_different_seeds_desynchronise(self):
        a = list(RetryPolicy(seed=1).delays())
        b = list(RetryPolicy(seed=2).delays())
        assert a != b

    def test_client_result_accessors(self):
        r = ClientResult(status="ok", response={"digest": "abc"},
                         attempts=1, wall_s=0.1)
        assert r.ok and r.digest == "abc"
        r = ClientResult(status="rejected", response={}, attempts=4,
                         wall_s=0.2)
        assert not r.ok and r.digest is None


@pytest.fixture(scope="module")
def server():
    config = ServerConfig(port=0, queue_capacity=4, executors=2,
                          workers=0, allow_test_hooks=True)
    with SamplingServer(config) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServeClient(port=server.port,
                       retry=RetryPolicy(max_attempts=1))


class TestServerHTTP:
    def test_served_bits_match_direct(self, client):
        from repro.bench.runner import paper_app, paper_graph
        from repro.core.engine import NextDoorEngine
        r = client.sample(SampleRequest(app="k-hop", graph="ppi",
                                        samples=48, seed=13))
        assert r.ok
        graph = paper_graph("ppi", "k-hop", seed=13)
        direct = NextDoorEngine(workers=0).run(
            paper_app("k-hop"), graph, num_samples=48, seed=13)
        assert r.digest == batch_digest(direct.batch)
        assert np.array_equal(r.arrays["roots"], direct.batch.roots)

    @pytest.mark.parametrize("app,samples", [("k-hop", 48), ("LADIES", 4)])
    def test_served_arrays_equal_direct_arrays(self, client, app, samples):
        from repro.bench.runner import paper_app, paper_graph
        r = client.sample(SampleRequest(app=app, graph="ppi",
                                        samples=samples, seed=21,
                                        return_samples=True))
        assert r.ok, r.response
        direct = NextDoorEngine(workers=0).run(
            paper_app(app), paper_graph("ppi", app, seed=21),
            num_samples=samples, seed=21).arrays()
        assert list(r.arrays) == list(direct)
        for name, arr in direct.items():
            got = r.arrays[name]
            assert got.dtype == arr.dtype and got.shape == arr.shape, name
            assert np.array_equal(got, arr), name

    def test_response_body_is_json_dumps(self, server):
        def sample(**fields):
            return server.handle_sample(json.dumps(dict(
                app="k-hop", graph="ppi", samples=16, seed=5,
                **fields)).encode())

        ok = sample()
        assert list(ok).index("arrays") < len(ok) - 1  # not the last key
        responses = {
            "ok": ok,
            "ok without arrays": sample(return_samples=False),
            "error": sample(fault_plan="interrupt-step:1"),
            "rejected": server._reject(7, "t", "queue full",
                                       retry_after_s=0.25, app="k-hop"),
            "cache miss": dict(ok, request_id=99, cache_hit=False),
        }
        assert responses["error"]["status"] == "error"
        assert responses["rejected"]["retry_after_ms"] == 250.0
        for kind, response in responses.items():
            assert response_body(response) == \
                json.dumps(response).encode("utf-8"), kind

    @pytest.mark.parametrize("deadline_ms", [float("nan"), float("inf")])
    def test_non_finite_deadline_is_400(self, client, deadline_ms):
        r = client.sample(SampleRequest(app="k-hop", graph="ppi",
                                        samples=16, deadline_ms=deadline_ms))
        assert r.status == "bad_request"
        assert "finite number" in r.response["error"]

    def test_huge_finite_deadline_is_served(self, client):
        r = client.sample(SampleRequest(app="k-hop", graph="ppi",
                                        samples=16, seed=6,
                                        deadline_ms=1e300))
        assert r.ok, r.response

    def test_response_carries_no_modeled_time(self, server, client):
        """The daemon samples; it prices nothing.  Modeled seconds are
        what ``repro sample`` / ``repro compare`` print, and asking the
        daemon for them is an unknown field, not an option."""
        r = client.sample(SampleRequest(app="DeepWalk", graph="ppi",
                                        samples=16, seed=4,
                                        return_samples=False))
        assert r.ok and r.digest
        assert "modeled_seconds" not in r.response
        asked = server.handle_sample(json.dumps(
            {"app": "DeepWalk", "graph": "ppi", "model": True}).encode())
        assert asked["status"] == "bad_request"
        assert asked["error"] == "unknown field(s) model"

    def test_no_samples_omits_arrays(self, client):
        r = client.sample(SampleRequest(app="k-hop", graph="ppi",
                                        samples=16, seed=1,
                                        return_samples=False))
        assert r.ok and r.arrays == {} and r.digest

    def test_unknown_app_is_400(self, client):
        r = client.sample(SampleRequest(app="bogus", graph="ppi"))
        assert r.status == "bad_request"
        assert "bogus" in r.response["error"]

    def test_unknown_graph_is_400(self, client):
        r = client.sample(SampleRequest(app="k-hop", graph="no-such"))
        assert r.status == "bad_request"

    def test_expired_deadline_is_504_at_enqueue(self, client):
        r = client.sample(SampleRequest(app="k-hop", graph="ppi",
                                        samples=16, deadline_ms=0.0))
        assert r.status == "deadline_exceeded"
        assert r.response["stage"] == "enqueue"

    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["executors"] == 2
        assert "breaker" not in health

    def test_metrics_endpoint_is_valid_openmetrics(self, client):
        from repro.obs.openmetrics import validate_openmetrics
        client.sample(SampleRequest(app="k-hop", graph="ppi",
                                    samples=16, seed=2))
        text = client.metrics_text()
        samples = validate_openmetrics(text)  # raises on malformed text
        assert any(name.startswith("serve_requests")
                   for name in samples)

    def test_request_counter_labels(self, server, client):
        before = get_metrics().counter(
            "serve.requests", labels={"tenant": "acme", "app": "k-hop",
                                      "status": "ok"}).value
        r = client.sample(SampleRequest(app="k-hop", graph="ppi",
                                        samples=16, seed=3,
                                        tenant="acme"))
        assert r.ok
        after = get_metrics().counter(
            "serve.requests", labels={"tenant": "acme", "app": "k-hop",
                                      "status": "ok"}).value
        assert after == before + 1

    def test_queue_full_is_429_with_retry_after(self, server, client):
        # Pin both executors, fill the 4-slot waiting room, then the
        # next request is deterministically rejected with Retry-After.
        fillers = [threading.Thread(target=client.sample, args=(
            SampleRequest(app="k-hop", graph="ppi", samples=16,
                          seed=40 + i,
                          hooks={"sleep_before_ms": 700}),))
            for i in range(6)]  # 2 executors + 4 queue slots
        for t in fillers:
            t.start()
        deadline = time.monotonic() + 5.0
        while ((server.admission.inflight() < 2
                or server.admission.depth() < 4)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert server.admission.depth() == 4
        rejected = client.sample(SampleRequest(
            app="k-hop", graph="ppi", samples=16, seed=50))
        for t in fillers:
            t.join()
        assert rejected.status == "rejected"
        assert rejected.response["retry_after_ms"] > 0

    def test_retry_policy_eventually_succeeds(self, server):
        # A 1-deep queue with a patient client: first attempts may be
        # rejected, the retries land once the blocker finishes.
        patient = ServeClient(port=server.port,
                              retry=RetryPolicy(max_attempts=6,
                                                base_delay_s=0.1,
                                                max_delay_s=0.4))
        blocker = threading.Thread(target=patient.sample, args=(
            SampleRequest(app="k-hop", graph="ppi", samples=16,
                          seed=30, hooks={"sleep_before_ms": 400}),))
        blocker.start()
        r = patient.sample(SampleRequest(app="k-hop", graph="ppi",
                                         samples=16, seed=31))
        blocker.join()
        assert r.ok

    def test_cancel_hook_reports_midrun_stage(self, client):
        r = client.sample(SampleRequest(
            app="k-hop", graph="ppi", samples=48, seed=13,
            hooks={"cancel_after_checks": 2}))
        assert r.status == "deadline_exceeded"
        assert r.response["stage"] == "mid-run"

    @staticmethod
    def _hooked_walk(client, plan, samples, seed):
        """One DeepWalk-100 request under its own fault plan."""
        return client.sample(SampleRequest(
            app="DeepWalk", graph="ppi", samples=samples, seed=seed,
            return_samples=False, hooks={"fault_plan": plan}))

    def _slow_hooked_walk(self, server, client, seed):
        """Start a 50 000-walker request that faults at step 90 and wait
        until it holds an executor; returns (thread, [result])."""
        done = []
        t = threading.Thread(target=lambda: done.append(self._hooked_walk(
            client, "interrupt-step:90", 50000, seed)))
        t.start()
        deadline = time.monotonic() + 5.0
        while (server.admission.inflight() == 0
               and time.monotonic() < deadline):
            time.sleep(0.005)
        return t, done

    def test_fault_plan_hook_stays_on_its_own_request(self, server,
                                                      client):
        """A hooked request's fault plan is carried on its engine, not
        in the process environment: a plain request overlapping it on
        the other executor neither inherits the plan nor waits."""
        from repro.bench.runner import paper_app, paper_graph
        from repro.core.engine import NextDoorEngine
        graph = paper_graph("ppi", "DeepWalk", seed=41)
        direct = batch_digest(NextDoorEngine(workers=0).run(
            paper_app("DeepWalk"), graph, num_samples=32,
            seed=41).batch)
        t, hooked = self._slow_hooked_walk(server, client, seed=40)
        overlapped = []
        while not hooked and len(overlapped) < 8:
            r = client.sample(SampleRequest(
                app="DeepWalk", graph="ppi", samples=32, seed=41,
                return_samples=False))
            if not hooked:
                overlapped.append(r)
        t.join(timeout=30.0)
        assert hooked and hooked[0].status == "error"
        assert "interrupt at step 90" in hooked[0].response["error"]
        assert overlapped, "no plain request overlapped the hooked one"
        for r in overlapped:
            assert r.status == "ok", r.response
            assert r.digest == direct

    def test_overlapping_fault_plan_hooks_each_see_their_own(
            self, server, client):
        t0 = time.monotonic()
        t, slow = self._slow_hooked_walk(server, client, seed=42)
        t1 = time.monotonic()
        fast = self._hooked_walk(client, "interrupt-step:3", 32, 43)
        fast_s = time.monotonic() - t1
        t.join(timeout=30.0)
        slow_s = time.monotonic() - t0
        assert "interrupt at step 3" in fast.response["error"]
        assert slow and "interrupt at step 90" in slow[0].response["error"]
        # Hooked requests do not queue behind each other: 3 steps of 32
        # walkers did not wait out 90 steps of 50 000.
        assert fast_s < slow_s / 2, (fast_s, slow_s)

    def test_keepalive_requests_do_not_stall(self, server):
        """A pooling client: head and body of a response arrive as one
        write.  Written apart, the body waits ~40 ms for the client's
        delayed ACK of the head on every request after the first."""
        import http.client
        body = json.dumps({"app": "k-hop", "graph": "ppi", "samples": 16,
                           "seed": 2, "return_samples": False}).encode()
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        laps = []
        try:
            for _ in range(20):
                t = time.monotonic()
                conn.request("POST", "/v1/sample", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = json.loads(response.read())
                laps.append(time.monotonic() - t)
                assert response.status == 200 and payload["status"] == "ok"
        finally:
            conn.close()
        assert sorted(laps)[len(laps) // 2] < 0.020, laps

    def test_bad_json_is_400(self, server):
        client = ServeClient(port=server.port)
        response = client._post("/v1/sample", b"{not json")
        assert response["status"] == "bad_request"

    def test_unknown_endpoint_is_400(self, server):
        client = ServeClient(port=server.port)
        response = client._post("/v1/nope", b"{}")
        assert response["status"] == "bad_request"


class TestDrain:
    def test_drain_refuses_then_finishes(self):
        config = ServerConfig(port=0, queue_capacity=4, executors=1,
                              workers=0, allow_test_hooks=True)
        server = SamplingServer(config).start()
        client = ServeClient(port=server.port,
                             retry=RetryPolicy(max_attempts=1))
        done = []
        t = threading.Thread(target=lambda: done.append(client.sample(
            SampleRequest(app="k-hop", graph="ppi", samples=16, seed=1,
                          hooks={"sleep_before_ms": 400}))))
        t.start()
        deadline = time.monotonic() + 5.0
        while (server.admission.inflight() == 0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        server.begin_drain()
        refused = client.sample(SampleRequest(app="k-hop", graph="ppi",
                                              samples=16, seed=2))
        assert refused.status == "draining"
        assert server.drain(timeout=10.0)
        t.join()
        assert done[0].status == "ok"

    def test_drain_flushes_stats(self, tmp_path):
        out = str(tmp_path / "stats.txt")
        config = ServerConfig(port=0, executors=1, workers=0,
                              stats_out=out)
        server = SamplingServer(config).start()
        ServeClient(port=server.port).sample(
            SampleRequest(app="k-hop", graph="ppi", samples=16, seed=1))
        assert server.drain(timeout=5.0)
        from repro.obs.openmetrics import validate_openmetrics
        text = open(out).read()
        validate_openmetrics(text)  # raises on malformed text
        assert "serve_requests" in text

    def test_failed_flush_still_stops_the_listener(self, tmp_path):
        """A stats path that cannot be written fails the drain loudly,
        and the listener is stopped all the same."""
        config = ServerConfig(port=0, executors=1, workers=0,
                              stats_out=str(tmp_path / "gone" / "s.prom"))
        server = SamplingServer(config).start()
        port = server.port
        with pytest.raises(OSError):
            server.drain(timeout=5.0)
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1.0)

    def test_hard_stop_answers_waiting_requests(self):
        """A hard stop (also the end of a timed-out drain) answers every
        request in the waiting room 503 at once; the running one is
        left to finish."""
        config = ServerConfig(port=0, queue_capacity=1, executors=1,
                              workers=0, allow_test_hooks=True)
        server = SamplingServer(config).start()
        client = ServeClient(port=server.port, timeout_s=6.0,
                             retry=RetryPolicy(max_attempts=1))
        results = {}

        def send(key, **fields):
            try:
                results[key] = client.sample(SampleRequest(
                    app="k-hop", graph="ppi", samples=16, **fields))
            except OSError as exc:  # the client timed out
                results[key] = exc

        pin = threading.Thread(target=send, args=("pinned",), kwargs=dict(
            seed=1, hooks={"sleep_before_ms": 1500}))
        pin.start()
        _until(lambda: server.admission.inflight() == 1)
        waiting = threading.Thread(target=send, args=("waiting",),
                                   kwargs=dict(seed=2))
        waiting.start()
        _until(lambda: server.admission.depth() == 1)
        t0 = time.monotonic()
        server.stop()
        waiting.join(timeout=10.0)
        answered_s = time.monotonic() - t0
        pin.join(timeout=10.0)
        assert getattr(results["waiting"], "status", None) == "draining", \
            results["waiting"]
        assert answered_s < 1.0, answered_s
        assert results["pinned"].ok


class TestWaitingRoom:
    def test_expired_waiter_is_answered_at_its_deadline(self):
        """A waiter whose deadline passes gets its 504 (stage dequeue)
        then, not when a slot frees, and its place in the room is free
        for the next request."""
        config = ServerConfig(port=0, queue_capacity=1, executors=1,
                              workers=0, allow_test_hooks=True)
        results = {}
        with SamplingServer(config) as server:
            client = ServeClient(port=server.port,
                                 retry=RetryPolicy(max_attempts=1))

            def send(key, **fields):
                t0 = time.monotonic()
                r = client.sample(SampleRequest(
                    app="k-hop", graph="ppi", samples=16, **fields))
                results[key] = (r, time.monotonic() - t0)

            threads = [threading.Thread(
                target=send, args=("pinned",),
                kwargs=dict(seed=1, hooks={"sleep_before_ms": 1500}))]
            threads[0].start()
            _until(lambda: server.admission.inflight() == 1)
            t0 = time.monotonic()
            threads.append(threading.Thread(
                target=send, args=("expiring",),
                kwargs=dict(seed=2, deadline_ms=200.0)))
            threads[1].start()
            _until(lambda: server.admission.depth() == 1
                   or "expiring" in results)
            time.sleep(max(0.0, 0.5 - (time.monotonic() - t0)))
            send("third", seed=3)  # waits out the pinned request
            for t in threads:
                t.join(timeout=10.0)
        expiring, expiring_s = results["expiring"]
        assert expiring.status == "deadline_exceeded", expiring.response
        assert expiring.response["stage"] == "dequeue"
        assert expiring_s < 1.0, expiring_s
        third, _ = results["third"]
        assert third.ok, third.response
        assert results["pinned"][0].ok

