"""Freed step memory stays in the process: a repeat run faults no pages.

A run's step arrays and numpy temporaries are tens of MB.  Fresh pages
cost the kernel a zeroing fault each on first touch, so a repeat run
must reuse the memory the previous run freed
(:func:`repro.runtime.context.retain_freed_memory`).  The probe runs in
a subprocess: its heap must not depend on what other tests left behind.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from repro.native.backend import available_backends
from repro.runtime import context

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import resource, sys
from repro.api.apps import KHop
from repro.core.engine import NextDoorEngine
from repro.graph import datasets
from repro.native.backend import backend_scope

graph = datasets.load("livej", seed=7, scale=300)
with backend_scope(sys.argv[1]):
    engine = NextDoorEngine()
    faults = []
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        engine.run(KHop((25, 10)), graph, num_samples=20000, seed=3)
        faults.append(
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[-1])
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator setting is glibc's mallopt")
@pytest.mark.parametrize("backend", available_backends())
def test_repeat_run_reuses_freed_pages(backend):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE, backend], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    assert int(out.stdout.split()[-1]) <= 64


@pytest.fixture
def fresh_setting():
    context.retain_freed_memory.cache_clear()
    yield
    context.retain_freed_memory.cache_clear()
    context.retain_freed_memory()


def test_setting_is_applied_once(fresh_setting):
    first = context.retain_freed_memory()
    assert context.retain_freed_memory() is first
    assert context.retain_freed_memory.cache_info().misses == 1
    if platform.libc_ver()[0] == "glibc":
        assert first is True


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_libc],
                         ids=["no-mallopt", "no-libc"])
def test_missing_mallopt_is_a_quiet_no_op(fresh_setting, monkeypatch, cdll):
    monkeypatch.setattr(context.ctypes, "CDLL", cdll)
    assert context.retain_freed_memory() is False
