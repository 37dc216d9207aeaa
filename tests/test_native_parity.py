"""Compiled-backend parity: bitwise-identical samples + charges.

The KernelBackend contract is that switching backends changes *speed
only*: every app, engine, and worker count must produce the identical
``SampleBatch`` (bitwise) and identical modeled charges.  The identity
lattice (``repro.verify.identity``) states that once; here its oracle
runs on:

* every differential app × cnative × NextDoor (in-process)
* a representative app subset × {SP, TP}
* multi-chunk runs at ``workers`` 1 and 2

and a toolchain that cannot build the library degrades once, to numpy's
samples.  Without a C toolchain the compiled parametrizations are
empty.
"""

import dataclasses
import subprocess

import pytest

from repro.core.engine import NextDoorEngine
from repro.graph.generators import rmat_graph
from repro.native.backend import available_backends, backend_scope
from repro.serve.protocol import batch_digest
from repro.verify.differential import DIFF_APPS
from repro.verify.identity import Cell, Workload, check_cell

COMPILED = [b for b in available_backends() if b != "numpy"]

_GRAPHS = {}


def _graph(weighted: bool):
    if weighted not in _GRAPHS:
        g = rmat_graph(256, 1024, seed=5, name="parity-rmat")
        _GRAPHS[weighted] = g.with_random_weights(seed=6) if weighted \
            else g
    return _GRAPHS[weighted]


def _holds(app_name, backend, weighted, engine="NextDoorEngine",
           workers=0, graph=None, num_samples=32, seed=23):
    """``app_name`` under ``backend`` as one lattice cell: the numpy
    run's digest and every priced number."""
    workload = Workload(DIFF_APPS[app_name],
                        graph or (lambda: _graph(weighted)),
                        num_samples, seed=seed)
    cell = Cell(app_name, backend, workers, "direct", True, "none",
                engine, 1)
    assert check_cell(cell, {app_name: workload}) == [], cell


def _snapshot(engine, app_name, weighted, num_samples=32, seed=23):
    result = engine.run(DIFF_APPS[app_name](), _graph(weighted),
                        num_samples=num_samples, seed=seed)
    return batch_digest(result.batch), dataclasses.asdict(result.metrics)


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("app_name", sorted(DIFF_APPS))
class TestNextDoorParity:
    def test_digest_and_charges_match_numpy(self, app_name, backend):
        for weighted in (False, True):
            _holds(app_name, backend, weighted)


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("engine_name",
                         ["SampleParallelEngine", "VanillaTPEngine"])
@pytest.mark.parametrize("app_name", ["DeepWalk", "k-hop", "LADIES"])
class TestBaselineEngineParity:
    def test_digest_and_charges_match_numpy(self, app_name, engine_name,
                                            backend):
        _holds(app_name, backend, app_name == "DeepWalk", engine_name)


@pytest.mark.parametrize("backend", COMPILED)
class TestPooledParity:
    """Multi-chunk runs so chunk threads really execute kernels, at
    the numpy serial run's digest and charges."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_deepwalk_multichunk(self, backend, workers):
        g = rmat_graph(1200, 7000, seed=9,
                       name="pool-rmat").with_random_weights(seed=9)
        _holds("DeepWalk", backend, True, workers=workers,
               graph=lambda: g, num_samples=5000, seed=31)


class TestBuildFailure:
    def test_one_attempt_one_report_numpy_samples(self, tmp_path,
                                                  monkeypatch):
        """A toolchain that cannot build the library is one failure,
        not one per kernel, and the run still yields numpy's samples."""
        from repro.native import cnative
        from repro.obs import get_metrics
        runs, cc = tmp_path / "runs", tmp_path / "cc"
        cc.write_text(f"#!/bin/sh\necho run >> {runs}\n"
                      "echo synthetic build error >&2\nexit 1\n")
        cc.chmod(0o755)
        monkeypatch.setenv("CC", str(cc))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(cnative, "_lib_cache", None)
        with backend_scope("numpy"):
            expected = _snapshot(NextDoorEngine(), "DeepWalk", True)
        counter = get_metrics().counter("native.compile_failures")
        before = counter.value
        with pytest.warns(RuntimeWarning,
                          match="synthetic build error") as caught:
            for _ in range(2):  # a later backend instance: no retry
                with backend_scope("cnative") as active:
                    assert _snapshot(NextDoorEngine(), "DeepWalk",
                                     True) == expected
                assert active._failed is True
        assert runs.read_text() == "run\n"
        assert len(caught) == 1 and counter.value == before + 1

    @pytest.mark.skipif(not COMPILED, reason="no C toolchain on this host")
    def test_cached_library_missing_a_kernel(self, tmp_path, monkeypatch):
        """A cached library that lacks a kernel's symbol is a failed
        build too: one warning, one count, numpy's samples."""
        from repro.native import cnative
        from repro.obs import get_metrics
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(cnative, "_lib_cache", None)
        empty = tmp_path / "empty.c"
        empty.write_text("")
        subprocess.run([cnative.find_compiler(), "-shared", "-fPIC", "-o",
                        cnative.library_path(), str(empty)], check=True)
        with backend_scope("numpy"):
            expected = _snapshot(NextDoorEngine(), "DeepWalk", True)
        counter = get_metrics().counter("native.compile_failures")
        before = counter.value
        with pytest.warns(RuntimeWarning, match="AttributeError") as caught:
            for _ in range(2):
                with backend_scope("cnative") as active:
                    assert _snapshot(NextDoorEngine(), "DeepWalk",
                                     True) == expected
                assert active._failed is True
        assert len(caught) == 1 and counter.value == before + 1
