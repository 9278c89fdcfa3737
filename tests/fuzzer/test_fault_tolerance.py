"""Supervised parallel sessions under injected faults.

Covers the acceptance properties of the fault-tolerance subsystem:
sessions survive crashed/stalled instances, restarts resume from
checkpoints with backoff, corrupt sync payloads are quarantined, seeded
plans replay deterministically, and the empty plan is a strict no-op.
"""

import pytest

from repro.faults import (CORRUPT_SYNC, CRASH, SLOW, STALL, FaultEvent,
                          FaultPlan, RestartPolicy)
from repro.core.errors import FaultPlanError
from repro.fuzzer import CampaignConfig, ParallelSession
from repro.target import get_benchmark
from tests.fuzzer.test_batch_engine import assert_checkpoints_equal

#: Virtual budget large enough for several sync slices.
BUDGET = 0.4
SYNC = BUDGET / 8.0


@pytest.fixture(scope="module")
def built():
    return get_benchmark("libpng").build(scale=0.25, seed_scale=1.0)


def config(**kwargs):
    defaults = dict(benchmark="libpng", fuzzer="bigmap",
                    map_size=1 << 18, scale=0.25, seed_scale=1.0,
                    virtual_seconds=BUDGET, max_real_execs=100_000,
                    rng_seed=3)
    defaults.update(kwargs)
    return CampaignConfig(**defaults)


def session(built, k=4, **kwargs):
    kwargs.setdefault("sync_interval", SYNC)
    return ParallelSession(config(), k, built=built, **kwargs)


@pytest.fixture(scope="module")
def plain_pair(built):
    """The no-plan 2-instance session, run once for the module."""
    return session(built, 2).run()


def fail_first_big_import(inst, at=3, imported_first=False):
    """Make ``inst``'s first sync batch of at least ``at`` entries
    raise at entry ``at``: its ``at``-th ``_pipeline`` call raises, or,
    with ``imported_first``, the entries before it import as their own
    batch and the import raises after them. Returns a record of that
    batch (filled in when it arrives)."""
    record = {}
    import_inputs, pipeline = inst.import_inputs, inst._pipeline

    def flaky_pipeline(*args, **kwargs):
        record["calls"] += 1
        if record["calls"] == at:
            raise RuntimeError("import failed mid-batch")
        return pipeline(*args, **kwargs)

    def flaky_import(entries):
        if record or len(entries) < at:
            return import_inputs(entries)
        record.update(entries=list(entries), execs=inst.execs, calls=0)
        if imported_first:
            import_inputs(entries[:at - 1])
            raise RuntimeError("import failed mid-batch")
        inst._pipeline = flaky_pipeline
        try:
            return import_inputs(entries)
        finally:
            del inst._pipeline

    inst.import_inputs = flaky_import
    return record


def summary_key(summary):
    return (summary.total_execs, summary.discovered_locations,
            summary.unique_crashes,
            tuple(r.execs for r in summary.per_instance),
            tuple(summary.instance_restarts),
            tuple(summary.instance_faults))


class TestEmptyPlanIsIdentity:
    def test_no_plan_empty_plan_equivalent(self, built, plain_pair):
        plain = plain_pair
        empty = session(built, 2, fault_plan=FaultPlan()).run()
        assert summary_key(plain) == summary_key(empty)
        assert empty.total_faults == 0
        assert empty.total_restarts == 0
        assert empty.lost_instances == []
        assert empty.quarantined_imports == 0


class TestDeterminism:
    def test_seeded_plan_replays_identically(self, built):
        plan = FaultPlan.generate(seed=99, n_instances=4,
                                  horizon=BUDGET, rate=1.5)
        policy = RestartPolicy(backoff_base=SYNC / 2)
        a = session(built, fault_plan=plan, restart_policy=policy).run()
        b = session(built, fault_plan=plan, restart_policy=policy).run()
        assert summary_key(a) == summary_key(b)


class TestCrashRecovery:
    def test_crash_one_of_four_recovers(self, built):
        """The acceptance scenario: one instance crashes mid-session,
        restarts from its checkpoint after backoff, and the session's
        final discovery stays within the faulted instance's lost slice
        of the no-fault run."""
        nofault = session(built).run()
        plan = FaultPlan([FaultEvent(time=BUDGET / 2, instance=1,
                                     kind=CRASH)])
        policy = RestartPolicy(max_restarts=3, backoff_base=SYNC / 4)
        faulted = session(built, fault_plan=plan,
                          restart_policy=policy).run()

        # The session completed with a well-formed summary.
        assert faulted.n_instances == 4
        assert len(faulted.per_instance) == 4
        # The crashed instance restarted (with backoff) and was not lost.
        assert faulted.instance_faults[1] == 1
        assert faulted.instance_restarts[1] == 1
        assert faulted.per_instance[1].restarts == 1
        assert faulted.lost_instances == []
        # Recovery bound: at worst the faulted instance forfeits its
        # crashed slice plus downtime; the synced survivors retain the
        # rest, so global discovery stays close to the no-fault run.
        lost_fraction = (SYNC + policy.backoff_base) / BUDGET
        floor = nofault.discovered_locations * (1.0 - 2 * lost_fraction)
        assert faulted.discovered_locations >= floor
        # The restarted instance resumed from its checkpoint, not from
        # the seed corpus: it kept fuzzing and reported work.
        assert faulted.per_instance[1].execs > 0

    def test_restart_budget_exhaustion_loses_instance(self, built):
        plan = FaultPlan([FaultEvent(time=BUDGET / 4, instance=2,
                                     kind=CRASH)])
        faulted = session(built, fault_plan=plan,
                          restart_policy=RestartPolicy(max_restarts=0)
                          ).run()
        assert faulted.lost_instances == [2]
        assert faulted.instance_restarts[2] == 0
        # Survivors carried the session to completion.
        assert len(faulted.per_instance) == 4
        assert faulted.total_execs > 0
        survivors = [r for i, r in enumerate(faulted.per_instance)
                     if i != 2]
        assert all(r.execs > 0 for r in survivors)

    def test_backoff_delays_second_restart(self, built):
        """Two crashes: the second restart waits longer than the first."""
        plan = FaultPlan([FaultEvent(time=BUDGET * 0.3, instance=0,
                                     kind=CRASH),
                          FaultEvent(time=BUDGET * 0.6, instance=0,
                                     kind=CRASH)])
        policy = RestartPolicy(max_restarts=5, backoff_base=SYNC / 4,
                               backoff_factor=2.0)
        faulted = session(built, fault_plan=plan,
                          restart_policy=policy).run()
        assert faulted.instance_restarts[0] == 2
        assert policy.backoff(1) == 2 * policy.backoff(0)


class TestStallRecovery:
    def test_stalled_instance_detected_and_restarted(self, built):
        plan = FaultPlan([FaultEvent(time=BUDGET * 0.4, instance=3,
                                     kind=STALL)])
        faulted = session(built, fault_plan=plan,
                          restart_policy=RestartPolicy(
                              backoff_base=SYNC / 4)).run()
        assert faulted.instance_faults[3] == 1
        assert faulted.instance_restarts[3] >= 1
        assert faulted.lost_instances == []


class TestSlowFault:
    def test_slow_window_reduces_instance_execs(self, built, plain_pair):
        plan = FaultPlan([FaultEvent(time=0.0, instance=0, kind=SLOW,
                                     duration=BUDGET, magnitude=8.0)])
        slowed = session(built, 2, fault_plan=plan).run()
        normal = plain_pair
        # Instance 0 paid 8x cycles per exec for the whole budget.
        assert slowed.per_instance[0].execs < \
            0.5 * normal.per_instance[0].execs
        # Instance 1 was unaffected by instance 0's slowdown window.
        assert slowed.instance_faults == [1, 0]


class TestCorruptSync:
    def test_corrupt_payloads_quarantined(self, built):
        plan = FaultPlan([FaultEvent(time=SYNC * 0.5, instance=0,
                                     kind=CORRUPT_SYNC)])
        faulted = session(built, 2, fault_plan=plan).run()
        assert faulted.instance_faults[0] == 1
        # The corrupted export was dropped, not imported.
        assert faulted.quarantined_imports > 0
        assert faulted.lost_instances == []


class TestUnplannedFailures:
    def test_exception_in_one_instance_quarantines_it(self, built):
        """Without checkpointing, a raising instance is lost — but the
        session survives and reports the failure."""
        sess = session(built, 2)
        boom = RuntimeError("simulated OOM kill")

        def exploding_step(deadline):
            raise boom

        # Sabotage instance 1 after its dry run by patching step_until.
        original_start = sess.instances[1].start

        def start_then_sabotage():
            original_start()
            sess.instances[1].step_until = exploding_step

        sess.instances[1].start = start_then_sabotage
        summary = sess.run()
        assert summary.lost_instances == [1]
        assert summary.unplanned_failures
        assert "simulated OOM kill" in summary.unplanned_failures[0]
        assert summary.per_instance[0].execs > 0

    def test_exception_with_checkpointing_restarts(self, built):
        """With supervision active, a raising instance restores from
        its checkpoint and retries — and is lost only after the retry
        budget runs out."""
        sess = session(built, 2, fault_plan=FaultPlan(),
                       restart_policy=RestartPolicy(
                           max_restarts=2, backoff_base=SYNC / 4))
        original = sess.instances[1].step_until
        calls = {"n": 0}

        def flaky_step(deadline):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("transient fault")
            return original(deadline)

        sess.instances[1].step_until = flaky_step
        summary = sess.run()
        assert summary.instance_restarts[1] >= 1
        assert summary.lost_instances == []
        assert summary.unplanned_failures

    def test_import_failure_mid_batch_keeps_earlier_entries(self, built):
        """Without checkpointing, an import that fails part-way through
        a peer's batch loses the instance, which keeps the entries
        imported before the failing one: it ends exactly as if those
        entries had been imported and the next one had failed."""
        sessions, records, summaries = [], [], []
        for imported_first in (False, True):
            sess = session(built, 2)
            records.append(fail_first_big_import(
                sess.instances[1], imported_first=imported_first))
            summaries.append(sess.run())
            sessions.append(sess)
        record = records[0]
        assert record, "no sync batch reached the failing entry"
        assert records[1]["entries"] == record["entries"]
        summary = summaries[0]
        assert summary.lost_instances == [1]
        assert "import failed mid-batch" in summary.unplanned_failures[0]
        assert summary.per_instance[0].execs > 0
        lost = sessions[0].instances[1]
        # Entries 1 and 2 were imported; entry 3 failed.
        assert lost.execs == record["execs"] + 2
        assert summary_key(summary) == summary_key(summaries[1])
        assert_checkpoints_equal(lost.snapshot(),
                                 sessions[1].instances[1].snapshot())

    def test_import_failure_mid_batch_restores_checkpoint(self, built):
        """With a restart policy, an import that fails part-way through
        a batch restores the instance's last checkpoint: campaign
        state, seen set and import cursors, so the whole batch is
        offered again at the next sync."""
        sess = session(built, 2, restart_policy=RestartPolicy(
            max_restarts=2, backoff_base=SYNC / 4))
        record = fail_first_big_import(sess.instances[1])
        guarded_import = sess._guarded_import
        restored, offered_again = [], []

        def checked_import(i, entries):
            if i == 1 and restored:
                offered_again.extend(entries)
            guarded_import(i, entries)
            if i == 1 and record and not restored:
                checkpoint = sess._checkpoints[1]
                assert_checkpoints_equal(sess.instances[1].snapshot(),
                                         checkpoint["campaign"])
                assert sess._seen[1] == checkpoint["seen"]
                assert sess._seen_cursor[1] == checkpoint["seen_cursor"]
                assert {j: sess._import_cursors.get((1, j), 0)
                        for j in range(2)} == checkpoint["cursors"]
                restored.append(True)

        sess._guarded_import = checked_import
        summary = sess.run()
        assert restored
        assert set(record["entries"]) <= set(offered_again)
        assert summary.lost_instances == []
        assert summary.instance_restarts[1] == 1
        assert "import failed mid-batch" in summary.unplanned_failures[0]


class TestPlanValidation:
    def test_plan_addressing_missing_instance_rejected(self, built):
        plan = FaultPlan([FaultEvent(time=0.1, instance=7, kind=CRASH)])
        with pytest.raises(FaultPlanError):
            session(built, 2, fault_plan=plan)
