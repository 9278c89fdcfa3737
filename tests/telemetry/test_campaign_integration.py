"""Telemetry threaded through a real campaign: zero behavioral impact,
byte-identical artifacts across same-config runs, schema-valid streams,
and hot-path span accounting."""

import json

import pytest

from repro.fuzzer import Campaign, CampaignConfig
from repro.target import get_benchmark
from repro.telemetry.recorder import TelemetryRecorder
from repro.telemetry.validate import validate_directory


@pytest.fixture(scope="module")
def built():
    return get_benchmark("libpng").build(scale=0.25, seed_scale=1.0)


def config(**kwargs):
    defaults = dict(benchmark="libpng", fuzzer="bigmap",
                    map_size=1 << 18, scale=0.25, seed_scale=1.0,
                    virtual_seconds=0.6, max_real_execs=4_000,
                    rng_seed=11)
    defaults.update(kwargs)
    return CampaignConfig(**defaults)


def run_recorded(built, **kwargs):
    recorder = TelemetryRecorder(instance=0)
    result = Campaign(config(**kwargs), built=built,
                      telemetry=recorder).run()
    return result, recorder


class TestBehavioralTransparency:
    def test_results_identical_with_and_without_telemetry(self, built):
        bare = Campaign(config(), built=built).run()
        recorded, _ = run_recorded(built)
        assert recorded == bare

    def test_two_runs_produce_identical_artifacts(self, built):
        _, first = run_recorded(built)
        _, second = run_recorded(built)
        assert first.artifacts() == second.artifacts()

    def test_seed_changes_the_stream(self, built):
        _, first = run_recorded(built)
        _, other = run_recorded(built, rng_seed=12)
        assert (first.artifacts()["events.jsonl"] !=
                other.artifacts()["events.jsonl"])


class TestStreamContents:
    def test_lifecycle_and_snapshot_events(self, built):
        _, recorder = run_recorded(built)
        kinds = [e["kind"] for e in recorder.events]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_finish"
        assert kinds.count("campaign_start") == 1
        assert kinds.count("campaign_finish") == 1
        assert "snapshot" in kinds

    def test_snapshot_series_is_monotonic(self, built):
        _, recorder = run_recorded(built)
        times = [e["t"] for e in recorder.events
                 if e["kind"] == "snapshot"]
        assert times == sorted(times)

    def test_final_counts_match_result(self, built):
        result, recorder = run_recorded(built)
        finish = recorder.events[-1]
        assert finish["execs"] == result.execs
        assert finish["edges"] == result.discovered_locations
        assert finish["stop_reason"] == result.stopped_by

    def test_hot_path_span_accounting(self, built):
        result, recorder = run_recorded(built)
        profile = recorder.tracer.profile()
        assert profile["run_one"]["calls"] > 0
        # Every charged execution deposits its priced cycles once.
        assert profile["op.execution"]["calls"] == result.execs
        # Spans the clock is never charged inside do not exist.
        for name in ("mutate", "execute", "classify_compare", "cost_eval"):
            assert name not in profile, name

    def test_memsim_share_histograms_recorded(self, built):
        result, recorder = run_recorded(built)
        snap = recorder.registry.snapshot()
        shares = {name: m for name, m in snap.items()
                  if name.startswith("memsim.share.")}
        assert shares, "cost attribution recorded no share histograms"
        for name, metric in shares.items():
            assert metric["total"] == result.execs, name

    def test_flushed_directory_validates(self, built, tmp_path):
        _, recorder = run_recorded(built)
        recorder.flush(str(tmp_path))
        report = validate_directory(str(tmp_path))
        assert report["events"] == len(recorder.events)
        assert report["plot_rows"] >= 1
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert set(metrics) == {"metrics", "spans"}
