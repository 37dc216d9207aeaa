"""Structured event log and flight recorder: typed validation, ring
bounds, dump gating, and stream checking."""

import json
import os

import pytest

from repro.obs import get_metrics, reset_metrics
from repro.obs.events import (
    EVENT_FIELDS,
    FLIGHT_DIR_ENV,
    EventLog,
    RING_CAPACITY,
    dump_flight,
    flight_dir,
    get_event_log,
    record,
    reset_events,
    set_flight_tag,
    validate_event_stream,
)


@pytest.fixture(autouse=True)
def _fresh_events():
    reset_events()
    yield
    reset_events()


class TestTypedRecord:
    def test_unknown_type_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError, match="unknown event type"):
            log.record("reactor_meltdown", why="testing")

    def test_missing_required_fields_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError, match="missing fields"):
            log.record("worker_crash", worker_index=0)  # no `why`

    def test_every_declared_type_is_recordable(self):
        log = EventLog()
        for etype, fields in EVENT_FIELDS.items():
            ev = log.record(etype, **{f: 0 for f in fields})
            assert ev["type"] == etype
        validate_event_stream(log.snapshot())

    def test_seq_monotonic_and_t_present(self):
        log = EventLog()
        evs = [log.record("checkpoint_save", chunk_id=i)
               for i in range(5)]
        assert [e["seq"] for e in evs] == [1, 2, 3, 4, 5]
        assert all(e["t"] >= 0 for e in evs)

    def test_extra_fields_ride_along(self):
        log = EventLog()
        ev = log.record("checkpoint_save", chunk_id=3, step=7,
                        kind="chunk")
        assert ev["step"] == 7 and ev["kind"] == "chunk"


class TestRing:
    def test_ring_is_bounded_and_drops_are_counted(self):
        reset_metrics()
        log = EventLog(capacity=8)
        for i in range(20):
            log.record("checkpoint_save", chunk_id=i)
        events = log.snapshot()
        assert len(events) == 8
        # Oldest evicted: the survivors are the 8 most recent.
        assert [e["chunk_id"] for e in events] == list(range(12, 20))
        snap = get_metrics().snapshot()
        assert snap["obs.events_dropped"] == 12.0
        assert snap["obs.events_recorded"] == 20.0

    def test_default_capacity(self):
        assert EventLog()._ring.maxlen == RING_CAPACITY

    def test_reset_restarts_seq(self):
        log = EventLog()
        log.record("degraded_mode", why="x")
        log.set_flight_tag("old")
        log.reset()
        assert log.snapshot() == []
        assert log.flight_tag is None
        assert log.record("degraded_mode", why="y")["seq"] == 1

    def test_snapshot_returns_copies(self):
        log = EventLog()
        log.record("degraded_mode", why="x")
        log.snapshot()[0]["why"] = "mutated"
        assert log.snapshot()[0]["why"] == "x"


class TestFlightDump:
    def test_noop_without_flight_dir(self, monkeypatch):
        monkeypatch.delenv(FLIGHT_DIR_ENV, raising=False)
        assert flight_dir() is None
        record("degraded_mode", why="x")
        assert dump_flight("test") is None

    def test_dump_writes_tagged_jsonl(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        set_flight_tag("deepwalk-ppi-s0-w2")
        record("run_start", app="DeepWalk", graph="ppi", seed=0,
               workers=2)
        record("degraded_mode", why="respawn budget exhausted")
        path = dump_flight("degraded-mode")
        assert path == str(tmp_path / "flight-deepwalk-ppi-s0-w2.jsonl")
        events = [json.loads(line) for line in open(path)]
        assert [e["type"] for e in events] == ["run_start",
                                               "degraded_mode"]
        validate_event_stream(events)

    def test_untagged_dump_uses_fallback_name(self, monkeypatch,
                                              tmp_path):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        record("degraded_mode", why="x")
        path = dump_flight("test")
        assert os.path.basename(path) == "flight-untagged.jsonl"

    def test_dump_never_raises_on_unwritable_dir(self, monkeypatch,
                                                 tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not directory")
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(blocker))
        record("degraded_mode", why="x")
        assert dump_flight("test") is None  # swallowed, not raised

    def test_dump_creates_missing_directory(self, monkeypatch,
                                            tmp_path):
        target = tmp_path / "deep" / "flights"
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(target))
        record("degraded_mode", why="x")
        assert dump_flight("test") is not None
        assert target.is_dir()


class TestStreamValidation:
    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown type"):
            validate_event_stream(
                [{"seq": 1, "t": 0.0, "type": "nope"}])

    def test_rejects_missing_required_field(self):
        with pytest.raises(ValueError, match="missing 'why'"):
            validate_event_stream(
                [{"seq": 1, "t": 0.0, "type": "degraded_mode"}])

    def test_rejects_non_increasing_seq(self):
        events = [
            {"seq": 2, "t": 0.0, "type": "degraded_mode", "why": "a"},
            {"seq": 2, "t": 0.1, "type": "degraded_mode", "why": "b"},
        ]
        with pytest.raises(ValueError, match="not increasing"):
            validate_event_stream(events)

    def test_rejects_non_dict_entries(self):
        with pytest.raises(ValueError, match="not an object"):
            validate_event_stream(["garbage"])

    def test_accepts_module_level_stream(self):
        record("run_start", app="a", graph="g", seed=0, workers=0)
        record("checkpoint_save", chunk_id=0)
        validate_event_stream(get_event_log().snapshot())


@pytest.mark.usefixtures("process_pool")
class TestRuntimeIntegration:
    def test_pooled_crash_records_events(self, monkeypatch):
        """A worker killed mid-run leaves crash/respawn (or retry)
        events in the ring — the flight recorder sees what the
        supervisor saw."""
        from repro.api.apps import DeepWalk
        from repro.core.engine import NextDoorEngine
        from repro.graph import generators
        from repro.runtime.faults import PLAN_ENV
        graph = generators.rmat_graph(num_vertices=300, num_edges=2000,
                                      seed=2, name="events-rmat")
        monkeypatch.setenv(PLAN_ENV, "kill-after-chunk:0.3")
        NextDoorEngine(workers=2, chunk_size=64).run(
            DeepWalk(walk_length=8), graph, num_samples=256, seed=1)
        types = {e["type"] for e in get_event_log().snapshot()}
        assert "run_start" in types
        assert "worker_crash" in types
        assert "worker_respawn" in types
        validate_event_stream(get_event_log().snapshot())
