"""Aggregator determinism: pure fold, delta replay, level shares."""

import json

import pytest

from repro.core.errors import TelemetryError
from repro.telemetry.events import EVENT_SCHEMA, make_event
from repro.telemetry.serve.aggregator import (IGNORED_KINDS,
                                              SERIES_NAMES,
                                              AggregatorService,
                                              TelemetryAggregator,
                                              canonical_json)
from repro.telemetry.serve.tailer import EVENTS_FILENAME
from repro.telemetry.sinks import encode_event


def snapshot_event(t, instance=0, **overrides):
    payload = dict(execs=int(100 * t), execs_per_sec=100.0, edges=int(10 * t),
                   map_density=0.01 * t, collision_rate=0.001,
                   queue_depth=5, pending_total=2, pending_favs=1,
                   favored=1, queue_cycles=1, cur_path=0, crashes=0,
                   hangs=0, max_depth=2)
    payload.update(overrides)
    return make_event("snapshot", t, instance=instance, **payload)


def sample_stream(instance=0):
    return [
        make_event("campaign_start", 0.0, instance=instance,
                   benchmark="zlib", fuzzer="bigmap",
                   map_size=1 << 16, rng_seed=7),
        snapshot_event(1.0, instance),
        make_event("restart", 1.5, instance=instance, restarts=1),
        snapshot_event(2.0, instance, crashes=1),
        make_event("campaign_finish", 3.0, instance=instance,
                   execs=300, edges=25, crashes=1, hangs=0,
                   stop_reason="budget"),
    ]


class TestFold:
    def test_snapshot_feeds_every_numeric_series(self):
        agg = TelemetryAggregator()
        agg.ingest("c", snapshot_event(1.0))
        series = agg.campaign("c")
        assert series.series["coverage"] == [[1.0, 10]]
        assert series.series["throughput"] == [[1.0, 100.0]]
        assert series.series["execs"] == [[1.0, 100]]
        assert series.series["density"] == [[1.0, 0.01]]
        assert series.series["crashes"] == [[1.0, 0, 0]]

    def test_meta_final_and_timeline(self):
        agg = TelemetryAggregator()
        for event in sample_stream():
            agg.ingest("c", event)
        series = agg.campaign("c")
        assert series.meta["benchmark"] == "zlib"
        assert series.meta["instance"] == 0
        assert series.final["stop_reason"] == "budget"
        [(t, kind, instance, payload)] = series.series["timeline"]
        assert (t, kind, instance) == (1.5, "restart", 0)
        assert payload == {"restarts": 1}

    def test_every_schema_kind_is_covered(self):
        # Schema coverage, checked dynamically: constructing the
        # aggregator must not raise, and handlers+ignores == schema.
        agg = TelemetryAggregator()
        covered = set(agg._dispatch) | set(IGNORED_KINDS)
        assert covered == set(EVENT_SCHEMA)

    def test_unhandled_kind_fails_construction(self, monkeypatch):
        monkeypatch.setitem(EVENT_SCHEMA, "brand_new_kind",
                            {"x": "int"})
        with pytest.raises(TelemetryError, match="brand_new_kind"):
            TelemetryAggregator()


class TestDeterminism:
    def test_chunked_equals_bulk_byte_identical(self):
        stream = sample_stream()
        bulk = TelemetryAggregator()
        for event in stream:
            bulk.ingest("c", event)
        chunked = TelemetryAggregator()
        for event in stream[:2]:
            chunked.ingest("c", event)
        for event in stream[2:]:
            chunked.ingest("c", event)
        assert (canonical_json(bulk.campaign("c").as_dict()) ==
                canonical_json(chunked.campaign("c").as_dict()))

    def test_campaign_interleaving_is_irrelevant_per_campaign(self):
        a_events = sample_stream(instance=0)
        b_events = sample_stream(instance=1)
        sequential = TelemetryAggregator()
        for event in a_events:
            sequential.ingest("a", event)
        for event in b_events:
            sequential.ingest("b", event)
        interleaved = TelemetryAggregator()
        for ea, eb in zip(a_events, b_events):
            interleaved.ingest("b", eb)
            interleaved.ingest("a", ea)
        for cid in ("a", "b"):
            assert (canonical_json(sequential.campaign(cid).as_dict())
                    == canonical_json(
                        interleaved.campaign(cid).as_dict()))

    def test_delta_replay_reproduces_snapshot(self):
        agg = TelemetryAggregator()
        replayed = agg.snapshot()
        deltas = []
        for event in sample_stream():
            deltas.extend(agg.ingest("c", event))
        agg.ingest_levels("c", {"l1": 0.5, "dram": 0.1})
        for delta in agg.deltas_since(replayed["seq"]):
            TelemetryAggregator.apply_delta(replayed, delta)
        assert (canonical_json(replayed) ==
                canonical_json(agg.snapshot()))

    def test_deltas_since_dense_and_bounded(self):
        agg = TelemetryAggregator(delta_log=4)
        for event in sample_stream():
            agg.ingest("c", event)
        assert agg.deltas_since(agg.seq) == []
        covered = agg.deltas_since(agg.seq - 4)
        assert [d["seq"] for d in covered] == list(
            range(agg.seq - 3, agg.seq + 1))
        # Older than the ring: caller must resnapshot.
        assert agg.deltas_since(0) is None
        assert agg.deltas_since(agg.seq + 1) is None

    def test_series_names_are_stable_contract(self):
        assert SERIES_NAMES == ("coverage", "throughput", "execs",
                                "density", "crashes", "timeline")


class TestAggregatorService:
    def test_polls_events_and_level_shares(self, tmp_path):
        directory = tmp_path / "instance-0"
        directory.mkdir()
        with open(directory / EVENTS_FILENAME, "w",
                  encoding="utf-8") as fh:
            for event in sample_stream():
                fh.write(encode_event(event) + "\n")
        (directory / "metrics.json").write_text(json.dumps({
            "metrics": {
                "memsim.share.l1": {"kind": "histogram",
                                    "sum": 30.0, "total": 60},
                "memsim.share.dram": {"kind": "histogram",
                                      "sum": 6.0, "total": 60},
                "memsim.other": {"kind": "counter", "total": 3},
            }}))
        service = AggregatorService(str(tmp_path))
        deltas = service.poll()
        assert deltas
        series = service.aggregator.campaign("instance-0")
        assert series.levels == {"dram": 0.1, "l1": 0.5}
        # Unchanged files produce no further deltas (idempotent poll).
        assert service.poll() == []

    def test_live_tail_equals_post_hoc_bytes(self, tmp_path):
        stream = sample_stream()
        path = tmp_path / EVENTS_FILENAME
        with open(path, "w", encoding="utf-8") as fh:
            for event in stream[:2]:
                fh.write(encode_event(event) + "\n")
        live = AggregatorService(str(tmp_path))
        live.poll()
        with open(path, "a", encoding="utf-8") as fh:
            for event in stream[2:]:
                fh.write(encode_event(event) + "\n")
        live.poll()
        post_hoc = AggregatorService(str(tmp_path))
        post_hoc.poll()
        assert (canonical_json(live.aggregator.snapshot()) ==
                canonical_json(post_hoc.aggregator.snapshot()))
