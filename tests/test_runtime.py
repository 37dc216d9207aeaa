"""The multicore sampling runtime (repro.runtime).

The contract under test: chunk threads change *wall-clock only*.
Samples are bitwise-identical for any worker count (the chunked RNG
plan is a pure function of ``(seed, step, chunk)``), every modeled
charge is untouched (the run still builds full-batch transit maps), and
no process leaves a shared-memory segment behind — the ledger's
residual graph export and pool set-up included.
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
    CHUNK_PAIRS,
    RNGPlan,
    resolve_workers,
)
from repro.runtime.context import WORKERS_ENV, combine_infos
from repro.runtime.pool import WorkerPool, get_pool, shutdown_pools
from repro.runtime.shm import (
    SEGMENT_PREFIX,
    export_graph,
    import_graph,
    leaked_segments,
    release_all,
)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

#: Small enough to force several chunks per step on the medium graph.
CHUNK = 64


@pytest.fixture
def small_chunks(set_chunk_pairs):
    set_chunk_pairs(CHUNK)


def _run(app_factory, graph, workers, num_samples=256, seed=11, **kw):
    engine = NextDoorEngine(workers=workers)
    with warnings.catch_warnings():
        # A compiled kernel that fell back to numpy warns: the test
        # would then not exercise the backend it names.
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
    def test_bounds_cover_range_exactly(self, set_chunk_pairs):
        set_chunk_pairs(100)
        plan = RNGPlan(0)
        b = plan.individual_bounds(250)
        assert b[0] == 0 and b[-1] == 250
        assert np.all(np.diff(b) > 0)
        assert np.all(np.diff(b)[:-1] == 100)

    def test_bounds_empty_and_single(self, set_chunk_pairs):
        set_chunk_pairs(100)
        plan = RNGPlan(0)
        assert plan.individual_bounds(0) == [0]
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
        assert RNGPlan(0).chunk_pairs == CHUNK_PAIRS == 16384

    def test_plan_reads_the_constant_when_built(self, set_chunk_pairs):
        plan = RNGPlan(0)
        set_chunk_pairs(100)
        assert (plan.chunk_pairs, RNGPlan(0).chunk_pairs) == (16384, 100)
        assert RNGPlan(0).collective_bounds(7) == [0, 3, 6, 7]


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
# Zero-copy graph sharing (the ledger's cold set-up only).
# ----------------------------------------------------------------------

class TestSharedGraph:
    def test_round_trip_equality(self, medium_weighted):
        handle = export_graph(medium_weighted)
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
        finally:
            release_all()

    def test_imported_arrays_are_read_only(self, medium_graph):
        handle = export_graph(medium_graph)
        try:
            g = import_graph(handle)
            with pytest.raises(ValueError):
                g.indices[0] = 0
        finally:
            release_all()

    def test_export_is_idempotent_per_graph(self, medium_graph):
        try:
            assert export_graph(medium_graph) is export_graph(medium_graph)
        finally:
            release_all()

    def test_release_removes_segments(self, medium_graph):
        handle = export_graph(medium_graph)
        names = set(handle.segment_names())
        assert names, "export produced no segments"
        assert names <= set(leaked_segments())  # present while owned
        release_all()
        assert not (names & set(leaked_segments()))


# ----------------------------------------------------------------------
# Bitwise identity: the acceptance criterion.
# ----------------------------------------------------------------------

@pytest.mark.usefixtures("small_chunks")
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


@pytest.mark.usefixtures("small_chunks")
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
        """workers=0 is the canonical sampling stream (what every
        engine produces by default)."""
        a = NextDoorEngine(workers=0).run(DeepWalk(walk_length=8),
                                          medium_weighted,
                                          num_samples=64, seed=3)
        b = NextDoorEngine().run(DeepWalk(walk_length=8),
                                 medium_weighted, num_samples=64, seed=3)
        _assert_batches_equal(a.batch, b.batch)


# ----------------------------------------------------------------------
# The model half is untouched by the runtime.
# ----------------------------------------------------------------------

@pytest.mark.usefixtures("small_chunks")
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
# Shared memory: none from a run, none left by the ledger's set-up.
# ----------------------------------------------------------------------

class TestNoLeakedSegments:
    def test_normal_exit_cleans_shm(self, tmp_path):
        """A process that samples on two chunk threads under each
        backend creates no segment, and leaves nothing in /dev/shm."""
        script = tmp_path / "child.py"
        script.write_text(
            "import os\n"
            "from repro.api.apps import DeepWalk\n"
            "from repro.core.engine import NextDoorEngine\n"
            "from repro.graph.generators import rmat_graph\n"
            "from repro.native.backend import available_backends,"
            " backend_scope\n"
            "from repro.runtime import rngplan\n"
            "from repro.runtime.shm import SEGMENT_PREFIX,"
            " leaked_segments\n"
            "rngplan.CHUNK_PAIRS = 64\n"
            "g = rmat_graph(2000, 12000, seed=11,"
            " name='medium').with_random_weights(seed=5)\n"
            "mine = f'{SEGMENT_PREFIX}_{os.getpid()}_'\n"
            "for name in available_backends():\n"
            "    with backend_scope(name):\n"
            "        e = NextDoorEngine(workers=2)\n"
            "        r = e.run(DeepWalk(walk_length=8), g,"
            " num_samples=128, seed=1)\n"
            "    assert r.batch.num_samples == 128\n"
            "    assert not [n for n in leaked_segments()"
            " if n.startswith(mine)]\n"
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


class TestLedgerSetUp:
    """What is left of the process pool: the perf ledger's cold set-up
    (export, spawn, one run broadcast, teardown)."""

    def test_ledger_setup_leaves_no_segment(self, medium_weighted):
        mine = f"{SEGMENT_PREFIX}_{os.getpid()}_"
        try:
            # The ledger's four-argument positional call.
            get_pool(2).broadcast_run(DeepWalk(walk_length=4),
                                      export_graph(medium_weighted), 7,
                                      False)
            assert [n for n in leaked_segments() if n.startswith(mine)]
        finally:
            shutdown_pools()
            release_all()
        assert not [n for n in leaked_segments() if n.startswith(mine)]

    def test_broadcast_to_dead_worker_raises(self):
        pool = WorkerPool(1)
        try:
            pool.procs[0].terminate()
            pool.procs[0].join()
            with pytest.raises(RuntimeError, match="worker"):
                pool.broadcast_run(DeepWalk(walk_length=4), None, 0,
                                   False)
        finally:
            pool.shutdown()

    def test_reference_flag_is_refused_before_any_send(self):
        # Checked before the pool is touched: no worker is needed.
        with pytest.raises(ValueError, match="reference kernels"):
            WorkerPool.broadcast_run(None, DeepWalk(walk_length=4), None,
                                     0, True)


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
                             workers=0, num_devices=2)
        assert result.batch.num_samples == 16

    def test_chunk_size_is_not_a_keyword(self, medium_weighted):
        with pytest.raises(TypeError, match="chunk_size"):
            do_sampling(DeepWalk(walk_length=4), medium_weighted, 16,
                        chunk_size=128)
