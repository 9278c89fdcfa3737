"""Event schema enforcement and sink behavior (JSONL, AFL)."""

import pytest

from repro.core.errors import TelemetryError
from repro.telemetry.events import (EVENT_SCHEMA, make_event,
                                    validate_event, validate_stream)
from repro.telemetry.sinks import AflStatsSink, JsonlEventLog, encode_event


def snapshot_event(t=1.0, **overrides):
    payload = dict(execs=100, execs_per_sec=100.0, edges=10,
                   map_density=0.01, collision_rate=0.001,
                   queue_depth=5, pending_total=2, pending_favs=1,
                   favored=1, queue_cycles=1, cur_path=0, crashes=0,
                   hangs=0, max_depth=2)
    payload.update(overrides)
    return make_event("snapshot", t, instance=0, **payload)


class TestSchema:
    def test_make_event_is_key_sorted(self):
        event = make_event("fault", 2.0, instance=1,
                           status="FAILED", reason="poison")
        assert list(event) == sorted(event)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TelemetryError, match="unknown event kind"):
            make_event("nonsense", 0.0)

    def test_missing_field_rejected(self):
        with pytest.raises(TelemetryError, match="missing field"):
            make_event("fault", 0.0, status="FAILED")

    def test_unexpected_field_rejected(self):
        with pytest.raises(TelemetryError, match="unexpected field"):
            make_event("restart", 0.0, restarts=1, extra=5)

    def test_type_mismatch_rejected(self):
        with pytest.raises(TelemetryError, match="should be int"):
            make_event("restart", 0.0, restarts="three")

    def test_bool_is_not_an_int(self):
        with pytest.raises(TelemetryError, match="should be int"):
            make_event("restart", 0.0, restarts=True)

    def test_int_satisfies_float_fields(self):
        event = make_event("stall", 3.0, instance=2, last_progress=1)
        assert validate_event(event) is event

    def test_validate_stream_reports_position(self):
        good = make_event("restart", 0.0, restarts=1)
        with pytest.raises(TelemetryError, match="line 2"):
            validate_stream([good, {"kind": "restart"}])

    def test_every_kind_has_flat_scalar_schema(self):
        for kind, fields in EVENT_SCHEMA.items():
            for tag in fields.values():
                assert tag in ("int", "float", "str"), (kind, tag)


class TestJsonlEventLog:
    def test_canonical_encoding(self):
        event = make_event("restart", 1.5, instance=3, restarts=2)
        assert encode_event(event) == (
            '{"instance":3,"kind":"restart","restarts":2,"t":1.5}')

    def test_artifact_roundtrip(self):
        log = JsonlEventLog()
        log.emit(make_event("restart", 1.0, restarts=1))
        content = log.artifacts()["events.jsonl"]
        assert content.endswith("\n")
        assert len(content.splitlines()) == 1

    def test_empty_log_writes_nothing(self):
        assert JsonlEventLog().artifacts() == {}

    def test_state_is_a_value_copy(self):
        log = JsonlEventLog()
        log.emit(make_event("restart", 1.0, restarts=1))
        state = log.dump_state()
        log.emit(make_event("restart", 2.0, restarts=2))
        fresh = JsonlEventLog()
        fresh.load_state(state)
        assert len(fresh.events) == 1


class TestAflStatsSink:
    def make_sink(self):
        sink = AflStatsSink()
        sink.emit(make_event("campaign_start", 0.0, instance=0,
                             benchmark="zlib", fuzzer="bigmap",
                             map_size=1 << 16, rng_seed=0))
        sink.emit(snapshot_event(t=5.0, execs=500, queue_depth=7))
        sink.emit(make_event("campaign_finish", 5.0, instance=0,
                             execs=500, edges=10, crashes=0, hangs=0,
                             stop_reason="budget"))
        return sink

    def test_plot_row_per_snapshot(self):
        sink = self.make_sink()
        assert len(sink.rows) == 1
        row = dict(zip(
            ("relative_time", "cycles_done", "cur_path", "paths_total",
             "pending_total", "pending_favs", "map_size",
             "unique_crashes", "unique_hangs", "max_depth",
             "execs_per_sec"), sink.rows[0]))
        assert row["relative_time"] == 5
        assert row["paths_total"] == 7
        assert row["map_size"] == 1 << 16

    def test_fuzzer_stats_derivation(self):
        stats = self.make_sink().fuzzer_stats()
        assert stats["start_time"] == 0
        assert stats["execs_done"] == 500
        assert stats["afl_banner"] == "zlib"
        assert stats["bitmap_cvg"] == "1.00%"

    def test_artifacts_empty_before_any_event(self):
        assert AflStatsSink().artifacts() == {}

    def test_state_roundtrip(self):
        sink = self.make_sink()
        state = sink.dump_state()
        fresh = AflStatsSink()
        fresh.load_state(state)
        assert fresh.artifacts() == sink.artifacts()
