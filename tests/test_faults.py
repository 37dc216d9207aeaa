"""Fault-plan grammar and firing budgets (repro.runtime.faults)."""

import pytest

from repro.api.apps import DeepWalk
from repro.core.engine import NextDoorEngine
from repro.runtime.faults import FAULT_NAMES, FaultInjected, FaultPlan
from repro.verify.identity import Cell, Workload, check_cell


class TestParse:
    def test_none_and_blank_parse_to_none(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("  ,  ") is None

    def test_simple_spec(self):
        plan = FaultPlan.parse("chunk-error:3")
        assert len(plan.specs) == 1
        spec = plan.specs[0]
        assert spec.name == "chunk-error"
        assert spec.arg == (3,)
        assert spec.remaining == 1
        assert plan.spec == "chunk-error:3"

    def test_step_dot_chunk_arg(self):
        plan = FaultPlan.parse("chunk-error:2.5")
        assert plan.specs[0].arg == (2, 5)

    def test_times_field(self):
        assert FaultPlan.parse("chunk-error:1:4").specs[0].remaining == 4
        assert FaultPlan.parse("chunk-error:1:*").specs[0].remaining is None

    def test_multiple_specs(self):
        plan = FaultPlan.parse("chunk-error:1, chunk-error:0.2")
        assert [s.arg for s in plan.specs] == [(1,), (0, 2)]

    def test_unknown_name_rejected_loudly(self):
        with pytest.raises(ValueError, match="unknown fault"):
            FaultPlan.parse("kill-worker:3")

    def test_missing_required_arg_rejected(self):
        for name in FAULT_NAMES:
            with pytest.raises(ValueError, match="needs an arg"):
                FaultPlan.parse(name)

    def test_bad_arg_rejected(self):
        with pytest.raises(ValueError, match="STEP.CHUNK"):
            FaultPlan.parse("chunk-error:x")

    def test_bad_times_rejected(self):
        with pytest.raises(ValueError, match="times"):
            FaultPlan.parse("chunk-error:1:zero")
        with pytest.raises(ValueError, match="times"):
            FaultPlan.parse("chunk-error:1:0")

    def test_too_many_fields_rejected(self):
        with pytest.raises(ValueError, match="too many"):
            FaultPlan.parse("chunk-error:1:2:3")

    def test_every_fault_name_parses(self):
        for name in FAULT_NAMES:
            assert FaultPlan.parse(f"{name}:0") is not None

    def test_retired_kinds_are_unknown(self):
        assert FAULT_NAMES == ("chunk-error",)
        for spec in ("kill-after-chunk:0.3", "pipe-eof:1.2",
                     "kill-before-chunk:0.1", "wedge-chunk:1.2",
                     "shm-export-fail:0", "broadcast-fail:0",
                     "unpicklable-app:0"):
            with pytest.raises(ValueError, match="unknown fault"):
                FaultPlan.parse(spec)


class TestShould:
    def test_chunk_arg_matches_any_step(self):
        plan = FaultPlan.parse("chunk-error:4:*")
        assert plan.should("chunk-error", 0, 4)
        assert plan.should("chunk-error", 7, 4)
        assert not plan.should("chunk-error", 0, 5)

    def test_step_chunk_arg_matches_exactly(self):
        plan = FaultPlan.parse("chunk-error:2.4:*")
        assert not plan.should("chunk-error", 0, 4)
        assert plan.should("chunk-error", 2, 4)

    def test_times_budget_is_consumed(self):
        plan = FaultPlan.parse("chunk-error:1:2")
        assert plan.should("chunk-error", 0, 1)
        assert plan.should("chunk-error", 1, 1)
        assert not plan.should("chunk-error", 2, 1)

    def test_unbounded_budget_never_exhausts(self):
        plan = FaultPlan.parse("chunk-error:1:*")
        for step in range(10):
            assert plan.should("chunk-error", step, 1)

    def test_wrong_name_never_fires(self):
        plan = FaultPlan.parse("chunk-error:1")
        assert not plan.should("kill-worker", 0, 1)


class TestEnginePlan:
    """``engine.fault_plan`` is the one way a plan reaches a run."""

    def _run(self, engine, graph):
        return engine.run(DeepWalk(walk_length=4), graph, num_samples=8,
                          seed=1)

    def test_each_run_fires_a_fresh_copy(self, tiny_graph):
        engine = NextDoorEngine()
        engine.fault_plan = FaultPlan.parse("chunk-error:1.0")
        for _ in range(2):
            with pytest.raises(FaultInjected, match="step 1"):
                self._run(engine, tiny_graph)
        assert engine.fault_plan.specs[0].remaining == 1

    def test_environment_is_not_read(self, tiny_graph, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "chunk-error:0.0")
        assert self._run(NextDoorEngine(), tiny_graph).steps_run == 4

    @pytest.mark.parametrize("workers", [0, 2])
    def test_chunk_error_fails_the_run_then_reruns_clean(
            self, medium_weighted, backend, workers, set_chunk_pairs):
        """``chunk-error`` fires inside the chunk, on the calling thread
        or a chunk thread; the run fails, and the next run of the same
        engine is the fault-free run bit for bit: the identity
        lattice's disturbed cell, at chunks of 64 pairs."""
        set_chunk_pairs(64)
        walk = Workload(lambda: DeepWalk(walk_length=4),
                        lambda: medium_weighted, 256, seed=1)
        cell = Cell("walk", backend.name, workers, "direct", False,
                    "chunk-error", "NextDoorEngine", 1)
        assert check_cell(cell, {"walk": walk}) == []
