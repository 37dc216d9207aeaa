"""Compiled-backend parity: bitwise-identical samples + charges.

The KernelBackend contract is that switching backends changes *speed
only*: every app, engine, and worker count must produce the identical
``SampleBatch`` (bitwise) and identical modeled charges, because the
compiled kernels consume the chunked RNG plan in exactly the numpy
draw order.  This file pins that contract:

* every differential app × cnative × NextDoor (in-process)
* a representative app subset × {SP, TP}
* multi-chunk pooled runs at ``workers`` 1 and 2
* the ``repro verify --suite native`` wiring

Without a C toolchain the compiled parametrizations are empty and only
the suite-registration test runs.
"""

import dataclasses
import hashlib
import subprocess

import numpy as np
import pytest

from repro.baselines import SampleParallelEngine, VanillaTPEngine
from repro.core.engine import NextDoorEngine
from repro.graph.generators import rmat_graph
from repro.native.backend import available_backends, backend_scope
from repro.verify.differential import DIFF_APPS, canonical_batch

COMPILED = [b for b in available_backends() if b != "numpy"]

_GRAPHS = {}


def _graph(weighted: bool):
    if weighted not in _GRAPHS:
        g = rmat_graph(256, 1024, seed=5, name="parity-rmat")
        _GRAPHS[weighted] = g.with_random_weights(seed=6) if weighted \
            else g
    return _GRAPHS[weighted]


def _snapshot(engine, app_name, weighted, num_samples=32, seed=23):
    app = DIFF_APPS[app_name]()
    result = engine.run(app, _graph(weighted),
                        num_samples=num_samples, seed=seed)
    canon = canonical_batch(app, result.batch)
    h = hashlib.sha256()
    for key in sorted(canon):
        h.update(key.encode())
        h.update(np.ascontiguousarray(canon[key]).tobytes())
    return h.hexdigest(), dataclasses.asdict(result.metrics)


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("app_name", sorted(DIFF_APPS))
class TestNextDoorParity:
    def test_digest_and_charges_match_numpy(self, app_name, backend):
        for weighted in (False, True):
            with backend_scope("numpy"):
                expected = _snapshot(NextDoorEngine(), app_name,
                                     weighted)
            with backend_scope(backend):
                actual = _snapshot(NextDoorEngine(), app_name, weighted)
            assert actual == expected, \
                f"{app_name} diverged on {backend} (weighted={weighted})"


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("engine_cls",
                         [SampleParallelEngine, VanillaTPEngine])
@pytest.mark.parametrize("app_name", ["DeepWalk", "k-hop", "LADIES"])
class TestBaselineEngineParity:
    def test_digest_and_charges_match_numpy(self, app_name, engine_cls,
                                            backend):
        weighted = app_name == "DeepWalk"
        with backend_scope("numpy"):
            expected = _snapshot(engine_cls(), app_name, weighted)
        with backend_scope(backend):
            actual = _snapshot(engine_cls(), app_name, weighted)
        assert actual == expected


@pytest.mark.parametrize("backend", COMPILED)
class TestPooledParity:
    """Multi-chunk runs so pool workers really execute kernels: the
    backend is inherited by every worker (broadcast in the run
    message), and digests must match numpy at the same worker count."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_deepwalk_multichunk(self, backend, workers):
        g = rmat_graph(1200, 7000, seed=9,
                       name="pool-rmat").with_random_weights(seed=9)
        app = DIFF_APPS["DeepWalk"]

        def run(name):
            with backend_scope(name):
                r = NextDoorEngine(workers=workers).run(
                    app(), g, num_samples=5000, seed=31)
            return ([a.copy() for a in r.batch.step_vertices],
                    dataclasses.asdict(r.metrics))

        base_steps, base_metrics = run("numpy")
        steps, metrics = run(backend)
        assert all(np.array_equal(a, b)
                   for a, b in zip(base_steps, steps))
        assert metrics == base_metrics


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


class TestVerifySuite:
    def test_native_suite_registered(self):
        from repro.verify.runner import SUITE_NAMES
        assert "native" in SUITE_NAMES

    def test_native_suite_passes_in_process(self):
        from repro.verify.native import POOLED_CASES, _golden_checks
        from repro.verify.runner import SUITE_INFO
        for backend in COMPILED:
            results = _golden_checks(backend, workers=None)
            assert results and all(r.passed for r in results), \
                [str(r) for r in results if not r.passed]
            # `repro verify --list` declares what the suite runs: the
            # golden re-checks plus each pooled case at workers 1 and 2.
            assert SUITE_INFO["native"][0] == \
                len(results) + 2 * len(POOLED_CASES)
