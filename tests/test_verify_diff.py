"""Differential testing machinery: canonical diffs, structural
invariants, and the reference ``next`` path against NextDoor.

Fast tier-1 cases pin one representative app per family (walk, k-hop,
collective) to a small graph; the full app × graph sweep is stat-marked.
"""

import numpy as np
import pytest

from repro.api.apps import DeepWalk, KHop, LADIES
from repro.core.engine import NextDoorEngine
from repro.graph.generators import rmat_graph
from repro.verify.differential import (
    DIFF_APPS,
    DIFF_GRAPHS,
    canonical_batch,
    check_invariants,
    diff_batches,
    differential_case,
    run_differential_checks,
)

SMALL = rmat_graph(128, 512, seed=11, name="diff-small")


class TestCanonicalDiff:
    def _batch(self, app, seed=0):
        return NextDoorEngine().run(app, SMALL, num_samples=8,
                                    seed=seed).batch

    def test_identical_batches_have_no_diff(self):
        app = DeepWalk(walk_length=4)
        a = canonical_batch(app, self._batch(app))
        b = canonical_batch(app, self._batch(app))
        assert diff_batches(a, b) == []

    def test_different_seeds_diff(self):
        app = DeepWalk(walk_length=4)
        a = canonical_batch(app, self._batch(app, seed=0))
        b = canonical_batch(app, self._batch(app, seed=1))
        assert diff_batches(a, b)

    def test_shape_mismatch_reported(self):
        a = canonical_batch(KHop((4, 2)), self._batch(KHop((4, 2))))
        b = canonical_batch(KHop((6, 2)), self._batch(KHop((6, 2))))
        assert any("shape" in p for p in diff_batches(a, b))

    def test_missing_key_reported(self):
        app = DeepWalk(walk_length=4)
        a = canonical_batch(app, self._batch(app))
        b = {k: v for k, v in a.items() if k != "step2"}
        assert any("only one output" in p for p in diff_batches(a, b))

    def test_collective_rows_sorted(self):
        app = LADIES(step_size=8, batch_size=4)
        canon = canonical_batch(app, self._batch(app))
        for key, arr in canon.items():
            if key.startswith("step"):
                assert np.array_equal(arr, np.sort(arr, axis=1))


class TestInvariants:
    def test_clean_walk_passes(self):
        app = DeepWalk(walk_length=6)
        batch = NextDoorEngine().run(app, SMALL, num_samples=8,
                                     seed=0).batch
        assert check_invariants(app, batch, SMALL) == []

    def test_tampered_walk_detected(self):
        app = DeepWalk(walk_length=6)
        batch = NextDoorEngine().run(app, SMALL, num_samples=8,
                                     seed=0).batch
        # Rewire one hop to a vertex that is almost surely not adjacent.
        batch.step_vertices[2][0, 0] = (
            (batch.step_vertices[1][0, 0] + 57) % SMALL.num_vertices)
        problems = check_invariants(app, batch, SMALL)
        assert any("not" in p and "edges" in p for p in problems)

    def test_tampered_khop_detected(self):
        app = KHop(fanouts=(4, 2))
        batch = NextDoorEngine().run(app, SMALL, num_samples=8,
                                     seed=0).batch
        batch.step_vertices[1][:, :] = (
            batch.step_vertices[1] + 1) % SMALL.num_vertices
        problems = check_invariants(app, batch, SMALL)
        assert any("adjacent" in p for p in problems)

    def test_out_of_range_detected(self):
        app = DeepWalk(walk_length=4)
        batch = NextDoorEngine().run(app, SMALL, num_samples=8,
                                     seed=0).batch
        batch.step_vertices[0][0, 0] = SMALL.num_vertices + 3
        problems = check_invariants(app, batch, SMALL)
        assert any("out-of-range" in p for p in problems)

    def test_duplicate_in_unique_step_detected(self):
        app = KHop(fanouts=(6,), unique_per_step=True)
        batch = NextDoorEngine().run(app, SMALL, num_samples=8,
                                     seed=0).batch
        batch.step_vertices[0][0, 1] = batch.step_vertices[0][0, 0]
        problems = check_invariants(app, batch, SMALL)
        assert any("duplicate" in p for p in problems)


class TestDifferentialCases:
    """One reference-path case per family stays in tier 1."""

    @pytest.mark.parametrize("app_name", ["DeepWalk", "k-hop", "LADIES"])
    def test_family_case_passes(self, app_name):
        result = differential_case(app_name, SMALL, seed=5,
                                   num_samples=24)
        assert result.passed, result.detail
        assert result.detail == "reference next path agrees"

    def test_family_labels(self):
        assert differential_case("DeepWalk", SMALL, seed=5,
                                 num_samples=8).family == "walk"
        assert differential_case("k-hop", SMALL, seed=5,
                                 num_samples=8).family == "khop"
        assert differential_case("LADIES", SMALL, seed=5,
                                 num_samples=8).family == "collective"


@pytest.mark.stat
class TestFullSweep:
    def test_every_app_on_every_graph(self):
        results = run_differential_checks(seed=0)
        assert len(results) == len(DIFF_GRAPHS) * len(DIFF_APPS)
        failures = [str(r) for r in results if not r.passed]
        assert not failures, "\n".join(failures)
