"""Smoke tests: the examples must run end to end.

Every example but large_graph_multi_gpu runs here; that one (~20 s)
runs as a step of CI's ``verify`` job.
"""

import os
import subprocess
import sys

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name: str, timeout: int = 300) -> str:
    path = os.path.join(EXAMPLES_DIR, name)
    result = subprocess.run([sys.executable, path], capture_output=True,
                            text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "DeepWalk" in out
        assert "store efficiency" in out
        assert "k-hop" in out

    def test_custom_sampler(self):
        out = run_example("custom_sampler.py")
        assert "contract checks passed" in out
        assert "burn_prob=0.9" in out

    def test_gnn_training(self):
        out = run_example("gnn_training.py")
        assert "OOM" in out  # the ClusterGCN/Orkut cell

    def test_full_pipeline(self):
        out = run_example("full_pipeline.py")
        assert "store efficiency" in out

    def test_compare_engines(self):
        out = run_example("compare_engines.py")
        assert "Tigr-style" in out
        assert "how much slower than NextDoor" in out

    def test_examples_exist(self):
        expected = {"quickstart.py", "custom_sampler.py",
                    "gnn_training.py", "full_pipeline.py",
                    "compare_engines.py", "large_graph_multi_gpu.py"}
        present = set(os.listdir(EXAMPLES_DIR))
        assert expected <= present
