"""Fault-plan grammar and firing budgets (repro.runtime.faults)."""

import pytest

from repro.api.apps import DeepWalk
from repro.core.engine import NextDoorEngine
from repro.runtime.faults import FAULT_NAMES, FaultInjected, FaultPlan


class TestParse:
    def test_none_and_blank_parse_to_none(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("  ,  ") is None

    def test_simple_spec(self):
        plan = FaultPlan.parse("kill-before-chunk:3")
        assert len(plan.specs) == 1
        spec = plan.specs[0]
        assert spec.name == "kill-before-chunk"
        assert spec.arg == (3,)
        assert spec.remaining == 1
        assert plan.spec == "kill-before-chunk:3"

    def test_step_dot_chunk_arg(self):
        plan = FaultPlan.parse("wedge-chunk:2.5")
        assert plan.specs[0].arg == (2, 5)

    def test_times_field(self):
        assert FaultPlan.parse("wedge-chunk:1:4").specs[0].remaining == 4
        assert FaultPlan.parse("wedge-chunk:1:*").specs[0].remaining is None

    def test_multiple_specs(self):
        plan = FaultPlan.parse("kill-before-chunk:1, chunk-error:0.2")
        assert [s.name for s in plan.specs] == ["kill-before-chunk",
                                                "chunk-error"]

    def test_argless_parent_faults(self):
        for name in ("shm-export-fail", "broadcast-fail",
                     "unpicklable-app"):
            plan = FaultPlan.parse(name)
            assert plan.specs[0].arg == ()

    def test_unknown_name_rejected_loudly(self):
        with pytest.raises(ValueError, match="unknown fault"):
            FaultPlan.parse("kill-worker:3")

    def test_missing_required_arg_rejected(self):
        with pytest.raises(ValueError, match="needs an arg"):
            FaultPlan.parse("kill-before-chunk")

    def test_bad_arg_rejected(self):
        with pytest.raises(ValueError, match="STEP.CHUNK"):
            FaultPlan.parse("kill-before-chunk:x")

    def test_bad_times_rejected(self):
        with pytest.raises(ValueError, match="times"):
            FaultPlan.parse("wedge-chunk:1:zero")
        with pytest.raises(ValueError, match="times"):
            FaultPlan.parse("wedge-chunk:1:0")

    def test_too_many_fields_rejected(self):
        with pytest.raises(ValueError, match="too many"):
            FaultPlan.parse("wedge-chunk:1:2:3")

    def test_every_fault_name_parses(self):
        for name in FAULT_NAMES:
            spec = name if name in ("shm-export-fail", "broadcast-fail",
                                    "unpicklable-app") else f"{name}:0"
            assert FaultPlan.parse(spec) is not None

    def test_retired_kinds_are_unknown(self):
        assert len(FAULT_NAMES) == 7
        for spec in ("kill-after-chunk:0.3", "pipe-eof:1.2"):
            with pytest.raises(ValueError, match="unknown fault"):
                FaultPlan.parse(spec)


class TestShould:
    def test_chunk_arg_matches_any_step(self):
        plan = FaultPlan.parse("kill-before-chunk:4:*")
        assert plan.should("kill-before-chunk", 0, 4)
        assert plan.should("kill-before-chunk", 7, 4)
        assert not plan.should("kill-before-chunk", 0, 5)

    def test_step_chunk_arg_matches_exactly(self):
        plan = FaultPlan.parse("kill-before-chunk:2.4:*")
        assert not plan.should("kill-before-chunk", 0, 4)
        assert plan.should("kill-before-chunk", 2, 4)

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
        assert not plan.should("wedge-chunk", 0, 1)

    def test_argless_spec_matches_any_point(self):
        plan = FaultPlan.parse("unpicklable-app")
        assert plan.should("unpicklable-app")
        assert not plan.should("unpicklable-app")  # budget spent


class TestEnginePlan:
    """``engine.fault_plan`` is the one way a plan reaches a run."""

    def _run(self, engine, graph):
        return engine.run(DeepWalk(walk_length=4), graph, num_samples=8,
                          seed=1)

    def test_each_run_fires_a_fresh_copy(self, tiny_graph):
        engine = NextDoorEngine()
        engine.fault_plan = FaultPlan.parse("interrupt-step:1")
        for _ in range(2):
            with pytest.raises(FaultInjected, match="step 1"):
                self._run(engine, tiny_graph)
        assert engine.fault_plan.specs[0].remaining == 1

    def test_environment_is_not_read(self, tiny_graph, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "interrupt-step:0")
        assert self._run(NextDoorEngine(), tiny_graph).steps_run == 4
