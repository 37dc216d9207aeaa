"""Checkpoint/resume (repro.runtime.checkpoint).

The acceptance criterion under test: a run interrupted partway and
resumed with ``--resume`` reproduces the uninterrupted run's samples
hash-for-hash, and mismatched state (different seed, graph, app, chunk
layout) can never be replayed into the wrong run.
"""

import os
import warnings

import numpy as np
import pytest

from repro.api.apps import LADIES, DeepWalk, KHop
from repro.api.types import StepInfo
from repro.core.engine import NextDoorEngine
from repro.obs import get_metrics
from repro.runtime.checkpoint import (
    CheckpointStore,
    graph_digest,
    run_fingerprint,
)
from repro.runtime.faults import FaultInjected, FaultPlan
from repro.runtime.rngplan import RNGPlan
from repro.serve.protocol import batch_digest
from repro.verify.differential import reference_view

CHUNK = 64


def _run(graph, ckpt=None, resume=False, workers=0, seed=11, plan=None):
    engine = NextDoorEngine(workers=workers, chunk_size=CHUNK,
                            checkpoint_dir=ckpt, resume=resume)
    engine.fault_plan = FaultPlan.parse(plan)
    return engine.run(DeepWalk(walk_length=12), graph,
                      num_samples=256, seed=seed)


class TestStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "fp0", resume=True)
        data = np.arange(12, dtype=np.int64).reshape(3, 4)
        info = StepInfo(avg_compute_cycles=42.0)
        store.save("i", (0,), 2, 5, data, info)
        loaded = store.load("i", (0,), 2, 5)
        assert loaded is not None
        got_data, got_info = loaded
        assert np.array_equal(got_data, data)
        assert got_info.avg_compute_cycles == 42.0

    def test_missing_chunk_is_cache_miss(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "fp0", resume=True)
        assert store.load("i", (), 0, 0) is None

    def test_corrupt_file_is_cache_miss(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "fp0", resume=True)
        data = np.arange(4, dtype=np.int64)
        store.save("c", (), 1, 3, data, StepInfo())
        path = store._path("c", (), 1, 3)
        with open(path, "wb") as fh:
            fh.write(b"not an npz file")
        assert store.load("c", (), 1, 3) is None

    def test_namespaces_do_not_collide(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "fp0", resume=True)
        store.save("i", (0,), 0, 0, np.array([1]), StepInfo())
        store.save("i", (1,), 0, 0, np.array([2]), StepInfo())
        a, _ = store.load("i", (0,), 0, 0)
        b, _ = store.load("i", (1,), 0, 0)
        assert a[0] == 1 and b[0] == 2


class TestFingerprint:
    def test_sensitive_to_every_input(self, medium_weighted,
                                      medium_graph):
        plan = RNGPlan(11, chunk_pairs=CHUNK)
        roots = np.arange(8, dtype=np.int64).reshape(8, 1)
        base = run_fingerprint(DeepWalk(walk_length=12),
                               medium_weighted, 11, plan, roots)
        variants = [
            run_fingerprint(DeepWalk(walk_length=13), medium_weighted,
                            11, plan, roots),
            run_fingerprint(KHop(fanouts=(4,)), medium_weighted, 11,
                            plan, roots),
            run_fingerprint(DeepWalk(walk_length=12), medium_graph, 11,
                            plan, roots),
            run_fingerprint(DeepWalk(walk_length=12), medium_weighted,
                            12, plan, roots),
            run_fingerprint(DeepWalk(walk_length=12), medium_weighted,
                            11, RNGPlan(11, chunk_pairs=32), roots),
            run_fingerprint(DeepWalk(walk_length=12), medium_weighted,
                            11, plan, roots[:4]),
            run_fingerprint(reference_view(DeepWalk(walk_length=12)),
                            medium_weighted, 11, plan, roots),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_unpicklable_app_still_fingerprints(self, medium_weighted):
        app = DeepWalk(walk_length=4)
        app.hook = lambda: None  # closures don't pickle
        plan = RNGPlan(0, chunk_pairs=CHUNK)
        roots = np.zeros((2, 1), dtype=np.int64)
        fp = run_fingerprint(app, medium_weighted, 0, plan, roots)
        assert len(fp) == 32

    def test_graph_digest_cached_and_content_keyed(self, medium_weighted,
                                                   medium_graph):
        d1 = graph_digest(medium_weighted)
        assert graph_digest(medium_weighted) == d1  # cached
        assert graph_digest(medium_graph) != d1


class TestResume:
    def test_interrupted_run_resumes_bitwise_identically(
            self, medium_weighted, tmp_path):
        expected = _run(medium_weighted)
        ckpt = str(tmp_path / "ckpt")

        with pytest.raises(FaultInjected, match="step 2"):
            _run(medium_weighted, ckpt=ckpt, plan="interrupt-step:2")

        loaded = get_metrics().counter("checkpoint.chunks_loaded")
        before = loaded.value
        resumed = _run(medium_weighted, ckpt=ckpt, resume=True)
        assert loaded.value > before
        assert np.array_equal(expected.batch.roots, resumed.batch.roots)
        for a, b in zip(expected.batch.step_vertices,
                        resumed.batch.step_vertices):
            assert np.array_equal(a, b)
        assert expected.seconds == resumed.seconds

    def test_resume_ignores_other_runs_state(self, medium_weighted,
                                             tmp_path):
        """A checkpoint written under seed 11 must not leak into a
        seed-12 resume: different fingerprint, different directory."""
        ckpt = str(tmp_path / "ckpt")
        _run(medium_weighted, ckpt=ckpt, seed=11)
        loaded = get_metrics().counter("checkpoint.chunks_loaded")
        before = loaded.value
        other = _run(medium_weighted, ckpt=ckpt, resume=True, seed=12)
        assert loaded.value == before  # nothing reused
        clean = _run(medium_weighted, seed=12)
        for a, b in zip(clean.batch.step_vertices,
                        other.batch.step_vertices):
            assert np.array_equal(a, b)

    def test_store_of_another_schedule_starts_fresh(
            self, medium_weighted, tmp_path, monkeypatch):
        """Chunks saved under another schedule rule cover other pairs:
        here the version-1 rule, whose walk steps ran transit-grouped.
        Resumed under today's rule they would assemble neither run's
        samples; the schedule version in the fingerprint keeps them out
        and the resume gives the fresh run's digest."""
        from repro.core import stepper
        from repro.runtime import checkpoint
        fresh = batch_digest(_run(medium_weighted).batch)
        ckpt = str(tmp_path / "ckpt")
        with monkeypatch.context() as old:
            old.setattr(checkpoint, "SCHEDULE_VERSION", 1)
            old.setattr(stepper, "walk_shaped", lambda *args: False)
            stale = batch_digest(_run(medium_weighted, ckpt=ckpt).batch)
        assert stale != fresh
        loaded = get_metrics().counter("checkpoint.chunks_loaded")
        before = loaded.value
        resumed = _run(medium_weighted, ckpt=ckpt, resume=True)
        assert loaded.value == before  # nothing reused
        assert batch_digest(resumed.batch) == fresh
        # Without the version the stale chunks would have been resumed.
        monkeypatch.setattr(checkpoint, "SCHEDULE_VERSION", 1)
        mixed = batch_digest(
            _run(medium_weighted, ckpt=ckpt, resume=True).batch)
        assert loaded.value > before
        assert mixed not in (fresh, stale)

    def test_checkpoint_without_resume_never_loads(self, medium_weighted,
                                                   tmp_path):
        ckpt = str(tmp_path / "ckpt")
        _run(medium_weighted, ckpt=ckpt)
        loaded = get_metrics().counter("checkpoint.chunks_loaded")
        before = loaded.value
        again = _run(medium_weighted, ckpt=ckpt)  # resume=False
        assert loaded.value == before
        expected = _run(medium_weighted)
        for a, b in zip(expected.batch.step_vertices,
                        again.batch.step_vertices):
            assert np.array_equal(a, b)

    def test_resume_after_pooled_kill_recomputes_only_lost(
            self, medium_weighted, tmp_path):
        """The full fault x checkpoint matrix cell: a pooled run loses
        a worker (the run finishes in-process), checkpoints survive,
        the run is then interrupted; the resume reloads every persisted
        chunk, recomputes exactly the lost remainder, and assembles the
        uninterrupted run's bits."""
        expected = _run(medium_weighted)
        # Total chunks of this workload, measured on a clean
        # checkpointed run (every chunk saved exactly once).
        saved = get_metrics().counter("checkpoint.chunks_saved")
        before = saved.value
        _run(medium_weighted, ckpt=str(tmp_path / "count"))
        total_chunks = saved.value - before

        ckpt = str(tmp_path / "ckpt")
        before = saved.value
        with pytest.raises(FaultInjected, match="step 2"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _run(medium_weighted, ckpt=ckpt, workers=2,
                 plan="kill-before-chunk:0.1,interrupt-step:2")
        persisted = saved.value - before
        assert 0 < persisted < total_chunks

        loaded = get_metrics().counter("checkpoint.chunks_loaded")
        computed = get_metrics().counter("runtime.chunks_inprocess")
        before_loaded, before_computed = loaded.value, computed.value
        resumed = _run(medium_weighted, ckpt=ckpt, resume=True)
        reloaded = loaded.value - before_loaded
        recomputed = computed.value - before_computed
        assert reloaded == persisted  # everything saved was reused
        assert recomputed == total_chunks - persisted  # only the rest
        assert np.array_equal(expected.batch.roots, resumed.batch.roots)
        for a, b in zip(expected.batch.step_vertices,
                        resumed.batch.step_vertices):
            assert np.array_equal(a, b)
        assert expected.seconds == resumed.seconds

    def test_resume_after_deadline_cancellation(self, medium_weighted,
                                                tmp_path):
        """A serve-style deadline cancellation discards the run but not
        its checkpoints: the resume reloads them and finishes
        bitwise-identically."""
        from repro.runtime.cancel import CancelledRun, CancelScope
        expected = _run(medium_weighted)
        ckpt = str(tmp_path / "ckpt")
        engine = NextDoorEngine(workers=0, chunk_size=CHUNK,
                                checkpoint_dir=ckpt)
        # 5 checks per step here (1 at the step head + 4 chunks):
        # tripping on check 13 cancels mid-step-2, after steps 0-1
        # were checkpointed and step 2's partial chunks are discarded.
        engine.cancel = CancelScope(trip_after_checks=13)
        with pytest.raises(CancelledRun):
            engine.run(DeepWalk(walk_length=12), medium_weighted,
                       num_samples=256, seed=11)
        loaded = get_metrics().counter("checkpoint.chunks_loaded")
        before = loaded.value
        resumed = _run(medium_weighted, ckpt=ckpt, resume=True)
        assert loaded.value > before
        for a, b in zip(expected.batch.step_vertices,
                        resumed.batch.step_vertices):
            assert np.array_equal(a, b)
        assert expected.seconds == resumed.seconds

    def test_resumed_pooled_run_matches(self, medium_weighted, tmp_path):
        """Interrupt an in-process checkpoint run, resume on the worker
        pool: restored chunks + pooled chunks still assemble the exact
        batch."""
        expected = _run(medium_weighted)
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(FaultInjected):
            _run(medium_weighted, ckpt=ckpt, plan="interrupt-step:1")
        resumed = _run(medium_weighted, ckpt=ckpt, resume=True,
                       workers=2)
        for a, b in zip(expected.batch.step_vertices,
                        resumed.batch.step_vertices):
            assert np.array_equal(a, b)


def _stored_chunks(ckpt):
    """``{file name: (dtype, shape, data bytes, info bytes)}`` of the
    one run directory under ``ckpt``."""
    (run_dir,) = os.listdir(ckpt)
    stored = {}
    for name in sorted(os.listdir(os.path.join(ckpt, run_dir))):
        with np.load(os.path.join(ckpt, run_dir, name)) as f:
            stored[name] = (f["data"].dtype.str, f["data"].shape,
                            f["data"].tobytes(), f["info"].tobytes())
    return stored


class TestPooledPayloads:
    """A pooled chunk's rows never reach the parent as a message: its
    checkpoint payload is gathered from the step arena, and must be the
    array a ``workers=0`` run stores."""

    @pytest.mark.parametrize("app_factory", [
        lambda: KHop(fanouts=(4, 3)),
        lambda: LADIES(step_size=8, batch_size=8),
    ], ids=["khop", "ladies"])
    def test_pooled_checkpoint_equals_serial(self, medium_graph,
                                             tmp_path, app_factory):
        def run(workers, ckpt, resume=False):
            engine = NextDoorEngine(workers=workers, chunk_size=CHUNK,
                                    checkpoint_dir=str(ckpt),
                                    resume=resume)
            return engine.run(app_factory(), medium_graph,
                              num_samples=200, seed=11)

        serial = run(0, tmp_path / "serial")
        pooled = run(2, tmp_path / "pooled")
        stored = _stored_chunks(tmp_path / "pooled")
        assert len(stored) > 4
        assert stored == _stored_chunks(tmp_path / "serial")

        loaded = get_metrics().counter("checkpoint.chunks_loaded")
        before = loaded.value
        resumed = run(2, tmp_path / "pooled", resume=True)
        assert loaded.value - before == len(stored)
        for result in (pooled, resumed):
            assert result.seconds == serial.seconds
            for a, b in zip(serial.batch.step_vertices,
                            result.batch.step_vertices):
                assert np.array_equal(a, b)
