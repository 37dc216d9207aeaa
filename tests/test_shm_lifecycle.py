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
    release_all,
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


#: A child that did the perf ledger's cold set-up (graph export, pool
#: spawn, run broadcast): its workers have the graph mapped.
_POOLED_CHILD = """\
import time
from repro.api.apps import KHop
from repro.graph.generators import rmat_graph
from repro.runtime.pool import get_pool
from repro.runtime.shm import export_graph
if __name__ == "__main__":
    g = rmat_graph(200, 800, seed=1, name='lifecycle')
    h = export_graph(g)
    get_pool(2).broadcast_run(KHop(fanouts=(3, 2)), h, 1, False)
    print(",".join(h.segment_names()), flush=True)
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
            release_all()

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
        """The handler also retires the pool whose workers map the
        graph."""
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
