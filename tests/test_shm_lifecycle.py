"""Shared-memory lifecycle on hard exits (repro.runtime.shm).

Owner-side atexit cleanup covers normal exits (tested in
test_runtime).  These tests cover the ways a process dies *without*
atexit: SIGKILL leaves orphans that the next pool startup's stale
sweep reaps (and only those — live owners are untouchable), and
SIGTERM is caught so a polite kill cleans up inline.
"""

import os
import signal
import subprocess
import sys
import time

from multiprocessing import shared_memory

from repro.graph.generators import rmat_graph
from repro.obs import get_metrics
from repro.runtime.pool import WorkerPool
from repro.runtime.shm import (
    SEGMENT_PREFIX,
    export_graph,
    leaked_segments,
    release_graph,
    sweep_stale_segments,
)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

_CHILD = """\
import time
from repro.graph.generators import rmat_graph
from repro.runtime.shm import export_graph
g = rmat_graph(200, 800, seed=1, name='lifecycle')
h = export_graph(g)
print(",".join(h.segment_names()), flush=True)
time.sleep(120)
"""


#: A child that ran a pooled step (numpy backend: worker processes):
#: it owns graph segments and one step arena, and its workers have the
#: arena mapped.
_POOLED_CHILD = """\
import os, time
from repro.api.apps import KHop
from repro.core.engine import NextDoorEngine
from repro.graph.generators import rmat_graph
from repro.native.backend import backend_scope
from repro.runtime.shm import leaked_segments
if __name__ == "__main__":
    g = rmat_graph(200, 800, seed=1, name='lifecycle')
    with backend_scope("numpy"):
        NextDoorEngine(workers=2, chunk_size=32).run(
            KHop(fanouts=(3, 2)), g, num_samples=100, seed=1)
    print(",".join(n for n in leaked_segments()
                   if f"_{os.getpid()}_" in n), flush=True)
    time.sleep(120)
"""


def _spawn_exporter(tmp_path, child=_CHILD):
    """Start a child that exports segments and then sleeps; returns
    (proc, its segment names)."""
    script = tmp_path / "exporter.py"
    script.write_text(child)
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.Popen([sys.executable, str(script)], env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().strip()
    assert line, "exporter child produced no segments"
    return proc, line.split(",")


def _wait_gone(names, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not (set(names) & set(leaked_segments())):
            return True
        time.sleep(0.1)
    return False


class TestStaleSweep:
    def test_sigkilled_owner_segments_are_swept(self, tmp_path):
        proc, names = _spawn_exporter(tmp_path)
        proc.kill()  # SIGKILL: no atexit, no signal handler
        proc.wait(timeout=30)
        assert set(names) <= set(leaked_segments()), \
            "SIGKILL should have orphaned the segments"
        swept_metric = get_metrics().counter("shm.segments_swept")
        before = swept_metric.value
        swept = sweep_stale_segments()
        assert swept >= len(names)
        assert not (set(names) & set(leaked_segments()))
        assert swept_metric.value - before >= len(names)

    def test_dead_owners_arena_is_swept(self, tmp_path):
        proc, names = _spawn_exporter(tmp_path, _POOLED_CHILD)
        arenas = [n for n in names if n.endswith("_arena")]
        assert len(arenas) == 1 and len(names) > 1
        proc.kill()  # its orphaned workers exit on the pipe EOF
        proc.wait(timeout=30)
        assert set(names) <= set(leaked_segments())
        sweep_stale_segments()
        assert not (set(names) & set(leaked_segments()))

    def test_pool_startup_sweeps(self, tmp_path):
        proc, names = _spawn_exporter(tmp_path)
        proc.kill()
        proc.wait(timeout=30)
        pool = WorkerPool(1)
        try:
            assert not (set(names) & set(leaked_segments()))
        finally:
            pool.shutdown()

    def test_live_owner_is_never_swept(self, tmp_path, medium_graph):
        handle = export_graph(medium_graph)
        own = set(handle.segment_names())
        try:
            proc, names = _spawn_exporter(tmp_path)
            try:
                sweep_stale_segments()
                # Both the child (alive) and this process keep theirs.
                assert set(names) <= set(leaked_segments())
                assert own <= set(leaked_segments())
            finally:
                proc.kill()
                proc.wait(timeout=30)
                sweep_stale_segments()
        finally:
            release_graph(medium_graph)

    def test_unparseable_names_are_left_alone(self):
        seg = shared_memory.SharedMemory(
            create=True, size=16, name=f"{SEGMENT_PREFIX}_legacy_x")
        try:
            sweep_stale_segments()
            assert seg.name.lstrip("/") in leaked_segments()
        finally:
            seg.close()
            seg.unlink()


class TestSigtermCleanup:
    def test_sigtermed_pooled_owner_leaves_no_segments(self, tmp_path):
        """The handler also retires the pools and releases the arena
        the pooled step was staged in."""
        self.test_sigtermed_owner_leaves_no_segments(tmp_path,
                                                     _POOLED_CHILD)

    def test_sigtermed_owner_leaves_no_segments(self, tmp_path,
                                                child=_CHILD):
        proc, names = _spawn_exporter(tmp_path, child)
        proc.terminate()  # SIGTERM: the export-time handler cleans up
        proc.wait(timeout=30)
        assert _wait_gone(names), \
            f"SIGTERM left segments behind: {names}"
        # The handler re-raises, so the exit status still says SIGTERM.
        assert proc.returncode == -signal.SIGTERM
