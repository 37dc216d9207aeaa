"""The multicore sampling runtime (repro.runtime).

The contract under test: the worker pool changes *wall-clock only*.
Samples are bitwise-identical for any worker count (the chunked RNG
plan is a pure function of ``(seed, step, chunk)``), every modeled
charge is untouched (the parent still builds full-batch transit maps),
crashes degrade to in-process execution with correct samples, and no
shared-memory segment outlives its owner.
"""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.api.apps import DeepWalk, KHop, LADIES, Node2Vec
from repro.core.engine import NextDoorEngine, do_sampling
from repro.runtime import (
    DEFAULT_CHUNK_PAIRS,
    ExecutionContext,
    RNGPlan,
    export_graph,
    import_graph,
    release_graph,
    resolve_workers,
)
from repro.runtime.context import WORKERS_ENV, combine_infos
from repro.runtime.pool import get_pool, shutdown_pools
from repro.runtime.shm import (
    SEGMENT_PREFIX,
    close_imported,
    leaked_segments,
)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

#: Small enough to force several chunks per step on the medium graph.
CHUNK = 64


def _run(app_factory, graph, workers, num_samples=256, seed=11, **kw):
    engine = NextDoorEngine(workers=workers, chunk_size=CHUNK)
    with warnings.catch_warnings():
        # A pool fallback would still produce identical samples, but
        # then the test would not be exercising the workers at all.
        warnings.simplefilter("error", RuntimeWarning)
        return engine.run(app_factory(), graph, num_samples=num_samples,
                          seed=seed, **kw)


def _assert_batches_equal(a, b):
    assert a.num_samples == b.num_samples
    assert np.array_equal(a.roots, b.roots)
    assert len(a.step_vertices) == len(b.step_vertices)
    for x, y in zip(a.step_vertices, b.step_vertices):
        assert np.array_equal(x, y)
    assert len(a.edges) == len(b.edges)
    for x, y in zip(a.edges, b.edges):
        assert np.array_equal(x, y)


# ----------------------------------------------------------------------
# The RNG plan: chunk layout and seeds never depend on the worker count.
# ----------------------------------------------------------------------

class TestRNGPlan:
    def test_bounds_cover_range_exactly(self):
        plan = RNGPlan(0, chunk_pairs=100)
        b = plan.individual_bounds(250)
        assert b[0] == 0 and b[-1] == 250
        assert np.all(np.diff(b) > 0)
        assert np.all(np.diff(b)[:-1] == 100)

    def test_bounds_empty_and_single(self):
        plan = RNGPlan(0, chunk_pairs=100)
        assert plan.individual_bounds(0).size == 1
        assert np.array_equal(plan.individual_bounds(40), [0, 40])

    def test_chunk_rng_is_pure_function_of_seed_step_chunk(self):
        a = RNGPlan(5).chunk_rng(3, 7).integers(0, 1 << 30, 16)
        b = RNGPlan(5).chunk_rng(3, 7).integers(0, 1 << 30, 16)
        assert np.array_equal(a, b)

    def test_distinct_chunks_get_distinct_streams(self):
        plan = RNGPlan(5)
        a = plan.chunk_rng(0, 0).integers(0, 1 << 30, 16)
        b = plan.chunk_rng(0, 1).integers(0, 1 << 30, 16)
        c = plan.chunk_rng(1, 0).integers(0, 1 << 30, 16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_default_chunk_size(self):
        assert RNGPlan(0).chunk_pairs == DEFAULT_CHUNK_PAIRS


class TestCombineInfos:
    def test_single_info_unchanged(self):
        from repro.api.types import StepInfo
        info = StepInfo(avg_compute_cycles=17.0)
        assert combine_infos([info], [10]) is info

    def test_weighted_mean(self):
        from repro.api.types import StepInfo
        merged = combine_infos(
            [StepInfo(avg_compute_cycles=10.0),
             StepInfo(avg_compute_cycles=20.0)], [3, 1])
        assert merged.avg_compute_cycles == pytest.approx(12.5)


# ----------------------------------------------------------------------
# Zero-copy graph sharing.
# ----------------------------------------------------------------------

class TestSharedGraph:
    def test_round_trip_equality(self, medium_weighted):
        handle = medium_weighted.to_shared()
        try:
            g = import_graph(handle)
            assert np.array_equal(g.indptr, medium_weighted.indptr)
            assert np.array_equal(g.indices, medium_weighted.indices)
            assert np.array_equal(g.weights, medium_weighted.weights)
            assert np.array_equal(g.degrees_array,
                                  medium_weighted.degrees_array)
            # The weighted draw's records are not shipped: the importer
            # derives them, bit for bit the exporter's.
            assert set(handle.arrays) == {"indptr", "indices", "degrees",
                                          "weights", "wrowmax"}
            for got, want in zip(g.weight_records(),
                                 medium_weighted.weight_records()):
                assert not got.flags.writeable
                assert got.tobytes() == want.tobytes()
            assert g.name == medium_weighted.name
            close_imported(g)
        finally:
            release_graph(medium_weighted)

    def test_imported_arrays_are_read_only(self, medium_graph):
        handle = export_graph(medium_graph)
        try:
            g = import_graph(handle)
            with pytest.raises(ValueError):
                g.indices[0] = 0
            close_imported(g)
        finally:
            release_graph(medium_graph)

    def test_export_is_idempotent_per_graph(self, medium_graph):
        try:
            assert export_graph(medium_graph) is export_graph(medium_graph)
        finally:
            release_graph(medium_graph)

    def test_release_removes_segments(self, medium_graph):
        handle = export_graph(medium_graph)
        names = set(handle.segment_names())
        assert names, "export produced no segments"
        assert names <= set(leaked_segments())  # present while owned
        release_graph(medium_graph)
        assert not (names & set(leaked_segments()))


# ----------------------------------------------------------------------
# Bitwise identity: the acceptance criterion.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2, 4])
class TestBitwiseIdentity:
    def test_deepwalk(self, medium_weighted, workers):
        r0 = _run(lambda: DeepWalk(walk_length=16), medium_weighted, 0)
        rw = _run(lambda: DeepWalk(walk_length=16), medium_weighted,
                  workers)
        _assert_batches_equal(r0.batch, rw.batch)

    def test_khop(self, medium_graph, workers):
        r0 = _run(lambda: KHop(fanouts=(10, 5)), medium_graph, 0)
        rw = _run(lambda: KHop(fanouts=(10, 5)), medium_graph, workers)
        _assert_batches_equal(r0.batch, rw.batch)

    def test_ladies(self, medium_graph, workers):
        r0 = _run(lambda: LADIES(step_size=16, batch_size=16),
                  medium_graph, 0, num_samples=128)
        rw = _run(lambda: LADIES(step_size=16, batch_size=16),
                  medium_graph, workers, num_samples=128)
        _assert_batches_equal(r0.batch, rw.batch)


class TestMoreIdentity:
    def test_node2vec_prev_transit_chunks(self, medium_weighted):
        """needs_prev_transits apps ship the previous-transit slice."""
        r0 = _run(lambda: Node2Vec(walk_length=12, p=2.0, q=0.5),
                  medium_weighted, 0)
        r2 = _run(lambda: Node2Vec(walk_length=12, p=2.0, q=0.5),
                  medium_weighted, 2)
        _assert_batches_equal(r0.batch, r2.batch)

    def test_multi_device_shards(self, medium_weighted):
        r0 = _run(lambda: DeepWalk(walk_length=12), medium_weighted, 0,
                  num_devices=3)
        r2 = _run(lambda: DeepWalk(walk_length=12), medium_weighted, 2,
                  num_devices=3)
        _assert_batches_equal(r0.batch, r2.batch)

    def test_workers_zero_matches_plain_default(self, medium_weighted):
        """workers=0 with the default chunk size is the canonical
        sampling stream (what every engine produces by default)."""
        a = NextDoorEngine(workers=0).run(DeepWalk(walk_length=8),
                                          medium_weighted,
                                          num_samples=64, seed=3)
        b = NextDoorEngine().run(DeepWalk(walk_length=8),
                                 medium_weighted, num_samples=64, seed=3)
        _assert_batches_equal(a.batch, b.batch)


# ----------------------------------------------------------------------
# The model half is untouched by the runtime.
# ----------------------------------------------------------------------

class TestModeledChargesUnchanged:
    def test_seconds_and_breakdown_identical(self, medium_weighted):
        r0 = _run(lambda: DeepWalk(walk_length=16), medium_weighted, 0)
        r2 = _run(lambda: DeepWalk(walk_length=16), medium_weighted, 2)
        assert r0.seconds == r2.seconds
        assert r0.breakdown == r2.breakdown

    def test_collective_charges_identical(self, medium_graph):
        r0 = _run(lambda: LADIES(step_size=16, batch_size=16),
                  medium_graph, 0, num_samples=128)
        r2 = _run(lambda: LADIES(step_size=16, batch_size=16),
                  medium_graph, 2, num_samples=128)
        assert r0.seconds == r2.seconds
        assert r0.breakdown == r2.breakdown


# ----------------------------------------------------------------------
# Crash resilience and cleanup.
# ----------------------------------------------------------------------

def _kill_worker0_after_begin_run(monkeypatch):
    """Patch begin_run so worker 0 is dead when the first step runs."""
    orig = ExecutionContext.begin_run

    def begin_and_kill(self, app, graph):
        orig(self, app, graph)
        if self.pool is not None:
            self.pool.procs[0].terminate()
            self.pool.procs[0].join()

    monkeypatch.setattr(ExecutionContext, "begin_run", begin_and_kill)


@pytest.mark.usefixtures("process_pool")
class TestCrashFallback:
    def test_fallback_produces_identical_samples(self, medium_weighted,
                                                 monkeypatch):
        """A worker death degrades the run to in-process execution —
        and samples are still identical."""
        expected = _run(lambda: DeepWalk(walk_length=16),
                        medium_weighted, 0)
        _kill_worker0_after_begin_run(monkeypatch)
        engine = NextDoorEngine(workers=2, chunk_size=CHUNK)
        with pytest.warns(RuntimeWarning, match="in-process"):
            crashed = engine.run(DeepWalk(walk_length=16),
                                 medium_weighted, num_samples=256,
                                 seed=11)
        _assert_batches_equal(expected.batch, crashed.batch)
        assert expected.seconds == crashed.seconds

    def test_no_leaked_segments_after_crash(self, medium_weighted,
                                            monkeypatch):
        self.test_fallback_produces_identical_samples(medium_weighted,
                                                      monkeypatch)
        # The dead worker must not have reaped the parent's segments...
        handle = getattr(medium_weighted, "_shared_handle", None)
        assert handle is not None
        # ...and owner-side release removes every one of them.
        release_graph(medium_weighted)
        leaked = set(leaked_segments())
        assert not (set(handle.segment_names()) & leaked)

    def test_pool_respawns_for_next_run(self, medium_weighted,
                                        monkeypatch):
        self.test_fallback_produces_identical_samples(medium_weighted,
                                                      monkeypatch)
        monkeypatch.undo()
        r = _run(lambda: DeepWalk(walk_length=16), medium_weighted, 2)
        expected = _run(lambda: DeepWalk(walk_length=16),
                        medium_weighted, 0)
        _assert_batches_equal(expected.batch, r.batch)


class TestNoLeakedSegments:
    def test_normal_exit_cleans_shm(self, tmp_path):
        """A process that samples with workers and exits normally
        leaves nothing in /dev/shm (atexit owns cleanup)."""
        script = tmp_path / "child.py"
        script.write_text(
            "import numpy as np\n"
            "from repro.api.apps import DeepWalk\n"
            "from repro.core.engine import NextDoorEngine\n"
            "from repro.graph.generators import rmat_graph\n"
            "g = rmat_graph(2000, 12000, seed=11,"
            " name='medium').with_random_weights(seed=5)\n"
            "e = NextDoorEngine(workers=2, chunk_size=64)\n"
            "r = e.run(DeepWalk(walk_length=8), g, num_samples=128,"
            " seed=1)\n"
            "assert r.batch.num_samples == 128\n"
            "print('OK')\n")
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        env.pop(WORKERS_ENV, None)
        proc = subprocess.Popen([sys.executable, str(script)], env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        assert "OK" in stdout
        # Only the child's own segments: another session on this host
        # may hold live segments of its own.
        child = f"{SEGMENT_PREFIX}_{proc.pid}_"
        assert not [n for n in leaked_segments() if n.startswith(child)]

    def test_get_pool_reuses_and_respawns(self):
        try:
            pool = get_pool(1)
            assert get_pool(1) is pool
            pool.procs[0].terminate()
            pool.procs[0].join()
            fresh = get_pool(1)
            assert fresh is not pool
            assert fresh.healthy()
        finally:
            shutdown_pools()


# ----------------------------------------------------------------------
# Worker-count plumbing.
# ----------------------------------------------------------------------

class TestResolveWorkers:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(2) == 2
        assert resolve_workers(0) == 0

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None) == 3
        monkeypatch.delenv(WORKERS_ENV)
        assert resolve_workers(None) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestDoSamplingKwargs:
    def test_unknown_kwarg_raises_typeerror(self, medium_weighted):
        with pytest.raises(TypeError, match="num_devies"):
            do_sampling(DeepWalk(walk_length=4), medium_weighted, 16,
                        num_devies=2)

    def test_known_kwargs_accepted(self, medium_weighted):
        result = do_sampling(DeepWalk(walk_length=4), medium_weighted, 16,
                             workers=0, chunk_size=128)
        assert result.batch.num_samples == 16
