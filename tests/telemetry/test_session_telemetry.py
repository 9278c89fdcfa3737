"""SessionTelemetry across a parallel session: per-instance artifact
trees, supervisor event emission under injected faults, and behavioral
transparency of the session-level recorder."""

import pytest

from repro.faults import (CORRUPT_SYNC, CRASH, FaultEvent, FaultPlan,
                          RestartPolicy)
from repro.faults.supervisor import SessionSupervisor
from repro.fuzzer import CampaignConfig, ParallelSession
from repro.target import get_benchmark
from repro.telemetry.recorder import SessionTelemetry
from repro.telemetry.validate import validate_tree

BUDGET = 0.4
SYNC = BUDGET / 8.0


@pytest.fixture(scope="module")
def built():
    return get_benchmark("libpng").build(scale=0.25, seed_scale=1.0)


def config():
    return CampaignConfig(
        benchmark="libpng", fuzzer="bigmap", map_size=1 << 18,
        scale=0.25, seed_scale=1.0, virtual_seconds=BUDGET,
        max_real_execs=100_000, rng_seed=3)


def session(built, k=3, telemetry=None, **kwargs):
    kwargs.setdefault("sync_interval", SYNC)
    return ParallelSession(config(), k, built=built,
                           telemetry=telemetry, **kwargs)


@pytest.fixture(scope="module")
def recorded(built):
    """One recorded no-plan session, shared by the tests that only
    read it: ``(telemetry, summary)``."""
    telemetry = SessionTelemetry()
    summary = session(built, telemetry=telemetry).run()
    return telemetry, summary


def summary_key(summary):
    return (summary.total_execs, summary.discovered_locations,
            summary.unique_crashes,
            tuple(r.execs for r in summary.per_instance))


class TestSupervisorEvents:
    def test_fault_and_restart_events(self):
        telemetry = SessionTelemetry()
        supervisor = SessionSupervisor(2, RestartPolicy(),
                                       telemetry=telemetry)
        supervisor.mark_failed(1, now=0.5, reason="crash fault")
        supervisor.mark_restarted(1, now=0.7)
        supervisor.mark_stalled(0, now=0.9, last_progress=0.4)
        supervisor.mark_quarantined(0, 1, now=1.0, entries=3)
        kinds = [(e["kind"], e["instance"])
                 for e in telemetry.session.events]
        assert kinds == [("fault", 1), ("restart", 1), ("stall", 0),
                         ("quarantine", 0)]
        quarantine = telemetry.session.events[-1]
        assert quarantine["exporter"] == 1
        assert quarantine["entries"] == 3
        assert supervisor.quarantined_imports == 3

    def test_no_telemetry_is_silent(self):
        supervisor = SessionSupervisor(2, RestartPolicy())
        supervisor.mark_failed(0, now=0.5, reason="crash fault")
        supervisor.mark_restarted(0)   # must not raise


class TestParallelSession:
    def test_telemetry_does_not_change_results(self, built, recorded):
        plain = session(built).run()
        _, summary = recorded
        assert summary_key(plain) == summary_key(summary)

    def test_per_instance_streams_and_sync_span(self, recorded):
        telemetry, _ = recorded
        assert telemetry.instances == [0, 1, 2]
        for i in telemetry.instances:
            recorder = telemetry.for_instance(i)
            kinds = [e["kind"] for e in recorder.events]
            assert kinds[0] == "campaign_start"
            assert kinds[-1] == "campaign_finish"
            assert all(e["instance"] == i for e in recorder.events)
        sync = telemetry.session.tracer.profile().get("sync")
        assert sync is not None and sync["calls"] >= 1

    def test_crash_fault_emits_session_events(self, built):
        telemetry = SessionTelemetry()
        plan = FaultPlan([FaultEvent(time=BUDGET / 4, instance=1,
                                     kind=CRASH)])
        session(built, telemetry=telemetry, fault_plan=plan,
                restart_policy=RestartPolicy(
                    max_restarts=2, backoff_base=0.05)).run()
        kinds = [e["kind"] for e in telemetry.session.events]
        assert "fault" in kinds
        assert "restart" in kinds

    def test_corrupt_sync_emits_quarantine(self, built):
        telemetry = SessionTelemetry()
        plan = FaultPlan([FaultEvent(time=BUDGET / 4, instance=1,
                                     kind=CORRUPT_SYNC)])
        summary = session(built, telemetry=telemetry,
                          fault_plan=plan).run()
        quarantines = [e for e in telemetry.session.events
                       if e["kind"] == "quarantine"]
        assert summary.quarantined_imports > 0
        assert sum(e["entries"] for e in quarantines) == \
            summary.quarantined_imports
        assert all(e["exporter"] == 1 for e in quarantines)

    def test_flush_tree_validates(self, built, tmp_path):
        telemetry = SessionTelemetry()
        plan = FaultPlan([FaultEvent(time=BUDGET / 4, instance=0,
                                     kind=CRASH)])
        session(built, telemetry=telemetry, fault_plan=plan,
                restart_policy=RestartPolicy(
                    max_restarts=2, backoff_base=0.05)).run()
        telemetry.flush(str(tmp_path))
        report = validate_tree(str(tmp_path))
        assert set(report) >= {".", "instance-000", "instance-001",
                               "instance-002"}
        assert report["instance-000"]["plot_rows"] >= 1
