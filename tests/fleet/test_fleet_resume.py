"""Durable trial state machine + crash-resume reconciliation."""

import os

import pytest

from repro.core.errors import (FleetDispatchError, FleetResumeError,
                               FleetStateError)
from repro.faults import (DISPATCHER_KILL, FleetFaultEvent,
                          FleetFaultPlan)
from repro.fleet import (DispatcherKilled, FleetDispatcher, FleetSpec,
                         ResultsStore)
from repro.fleet.chaos import ChaosController
from repro.fleet.store import (_ALLOWED, DISPATCHED, DONE, LOST,
                               MEASURING, PENDING, QUARANTINED, RUNNING,
                               TERMINAL_STATES, TRIAL_STATES)
from repro.fleet.workers import RESULT_FILE
from repro.telemetry.recorder import SessionTelemetry


def _spec(**overrides):
    base = dict(fuzzers=("afl", "bigmap"), benchmarks=("zlib",),
                map_sizes=(1 << 16,), n_trials=2, scale=0.05,
                seed_scale=0.02, virtual_seconds=2.0,
                max_real_execs=1200)
    base.update(overrides)
    return FleetSpec(**base)


class TestStateMachine:
    def _store(self, n=3):
        store = ResultsStore()
        store.init_states(range(n))
        return store

    def test_init_states_starts_pending_attempt_zero(self):
        store = self._store()
        assert store.trial_state(0) == (PENDING, 0)
        assert store.state_counts() == {PENDING: 3}

    def test_init_states_is_idempotent(self):
        store = self._store()
        store.transition(0, DISPATCHED)
        store.init_states(range(3))
        # A resumed fleet re-inits; progress must survive.
        assert store.trial_state(0) == (DISPATCHED, 1)

    def test_dispatch_increments_monotonic_attempt(self):
        store = self._store()
        assert store.transition(0, DISPATCHED) == 1
        assert store.transition(0, PENDING) == 1
        assert store.transition(0, DISPATCHED) == 2
        assert store.trial_state(0) == (DISPATCHED, 2)

    def test_happy_path_walk(self):
        store = self._store()
        for state in (DISPATCHED, RUNNING, MEASURING, DONE):
            store.transition(1, state)
        assert store.trial_state(1) == (DONE, 1)

    def test_measuring_rerecord_is_idempotent(self):
        store = self._store()
        store.transition(0, DISPATCHED)
        store.transition(0, MEASURING)
        assert store.transition(0, MEASURING) == 1
        assert store.trial_state(0) == (MEASURING, 1)

    def test_illegal_transition_raises(self):
        store = self._store()
        with pytest.raises(FleetStateError, match="illegal"):
            store.transition(0, DONE)

    def test_transition_graph_covers_exactly_the_declared_states(self):
        assert set(_ALLOWED) == set(TRIAL_STATES)
        for targets in _ALLOWED.values():
            assert set(targets) <= set(TRIAL_STATES)

    def test_every_state_is_reachable_from_the_initial_state(self):
        reached = {TRIAL_STATES[0]}
        frontier = [TRIAL_STATES[0]]
        while frontier:
            for target in _ALLOWED[frontier.pop()]:
                if target not in reached:
                    reached.add(target)
                    frontier.append(target)
        assert reached == set(TRIAL_STATES)

    def test_terminal_states_have_no_out_edges(self):
        for terminal in TERMINAL_STATES:
            assert _ALLOWED[terminal] == ()

    def test_unknown_state_raises(self):
        store = self._store()
        with pytest.raises(FleetStateError, match="unknown"):
            store.transition(0, "paused")

    def test_transition_without_state_row_raises(self):
        store = ResultsStore()
        with pytest.raises(FleetStateError, match="no state row"):
            store.transition(9, DISPATCHED)

    def test_terminal_states_refuse_every_exit(self):
        for terminal in TERMINAL_STATES:
            store = self._store()
            store.transition(0, DISPATCHED)
            store.transition(0, MEASURING if terminal == DONE
                             else terminal)
            if terminal == DONE:
                store.transition(0, DONE)
            with pytest.raises(FleetStateError, match="illegal"):
                store.transition(0, PENDING)

    def test_missing_trial_reads_pending(self):
        store = self._store()
        assert store.trial_state(99) == (PENDING, 0)


class TestFromStore:
    def test_store_without_spec_is_rejected(self):
        store = ResultsStore()
        with pytest.raises(FleetResumeError, match="no persisted"):
            FleetDispatcher.from_store(store)

    def test_missing_workdir_is_rejected(self, tmp_path):
        store = ResultsStore()
        gone = tmp_path / "gone"
        FleetDispatcher(_spec(), store=store, workdir=str(gone),
                        measure=False)
        # The workdir was persisted but never created on disk.
        with pytest.raises(FleetResumeError, match="missing"):
            FleetDispatcher.from_store(store)

    def test_conflicting_spec_is_rejected(self, tmp_path):
        store = ResultsStore()
        FleetDispatcher(_spec(), store=store, workdir=str(tmp_path),
                        measure=False)
        other = _spec(n_trials=5)
        with pytest.raises(FleetDispatchError, match="different"):
            FleetDispatcher(other, store=store, workdir=str(tmp_path),
                            measure=False)
        with pytest.raises(FleetResumeError, match="persisted spec"):
            FleetDispatcher(other, store=store, workdir=str(tmp_path),
                            measure=False, resume=True)


def _kill_plan(at_tick):
    return FleetFaultPlan(
        [FleetFaultEvent(at_tick=at_tick, kind=DISPATCHER_KILL)])


class TestKillAndResume:
    def test_resume_finishes_the_fleet_bit_identically(self, tmp_path):
        clean_store = ResultsStore()
        FleetDispatcher(_spec(), store=clean_store,
                        measure=False).run()

        store = ResultsStore()
        dispatcher = FleetDispatcher(
            _spec(), store=store, workdir=str(tmp_path), measure=False,
            chaos=ChaosController(_kill_plan(2)))
        with pytest.raises(DispatcherKilled):
            dispatcher.run()
        done_at_death = store.state_counts().get(DONE, 0)
        assert 0 < done_at_death < 4

        telemetry = SessionTelemetry()
        summary = FleetDispatcher.from_store(
            store, measure=False, telemetry=telemetry).run()
        assert summary.resumed
        assert summary.completed == 4
        assert summary.requeued == 4 - done_at_death
        clean = [tuple(r) for r in clean_store.trial_rows()]
        resumed = [tuple(r) for r in store.trial_rows()]
        assert clean == resumed   # attempts included: no retries here

        resume_events = [e for e in telemetry.session.events
                         if e["kind"] == "fleet_resume"]
        assert len(resume_events) == 1
        assert resume_events[0]["done"] == done_at_death
        assert resume_events[0]["requeued"] == 4 - done_at_death
        dispatches = [e for e in telemetry.session.events
                      if e["kind"] == "trial_dispatch"]
        assert len(dispatches) == 4 - done_at_death

    def test_resume_of_a_finished_fleet_redoes_nothing(self, tmp_path):
        store = ResultsStore()
        FleetDispatcher(_spec(), store=store, workdir=str(tmp_path),
                        measure=False).run()
        rows = [tuple(r) for r in store.trial_rows()]

        telemetry = SessionTelemetry()
        summary = FleetDispatcher.from_store(
            store, measure=False, telemetry=telemetry).run()
        assert summary.resumed
        assert summary.completed == 4
        assert summary.requeued == 0 and summary.reconciled == 0
        assert [tuple(r) for r in store.trial_rows()] == rows
        kinds = [e["kind"] for e in telemetry.session.events]
        assert "trial_dispatch" not in kinds
        assert kinds.count("fleet_resume") == 1

    def test_dispatched_trial_recovers_from_result_artifact(
            self, tmp_path):
        # First pass populates the workdir with finished artifacts.
        spec = _spec()
        seed_store = ResultsStore()
        FleetDispatcher(spec, store=seed_store, workdir=str(tmp_path),
                        measure=False).run()
        expected = [tuple(r) for r in seed_store.trial_rows()]

        # Fresh store: trial 2 was dispatched, then the dispatcher
        # died before processing the completion the worker left.
        store = ResultsStore()
        FleetDispatcher(spec, store=store, workdir=str(tmp_path),
                        measure=False)
        store.transition(2, DISPATCHED)

        summary = FleetDispatcher.from_store(store,
                                             measure=False).run()
        assert summary.reconciled == 1
        assert summary.requeued == 3
        assert summary.completed == 4
        assert store.attempts(2) == 1
        assert [tuple(r) for r in store.trial_rows()] == expected

    def test_corrupt_result_artifact_requeues_the_trial(
            self, tmp_path):
        spec = _spec()
        seed_store = ResultsStore()
        FleetDispatcher(spec, store=seed_store, workdir=str(tmp_path),
                        measure=False).run()
        expected = [tuple(r) for r in seed_store.trial_rows()]

        result_path = tmp_path / "trial-0002" / RESULT_FILE
        with open(result_path, "r+b") as fh:
            fh.truncate(8)

        store = ResultsStore()
        FleetDispatcher(spec, store=store, workdir=str(tmp_path),
                        measure=False)
        store.transition(2, DISPATCHED)

        summary = FleetDispatcher.from_store(store,
                                             measure=False).run()
        assert summary.quarantined_artifacts >= 1
        assert summary.reconciled == 0
        assert summary.requeued == 4
        assert summary.completed == 4
        assert os.path.exists(str(result_path) + ".quarantined")
        # The re-run lands the same result the artifact would have;
        # only the attempt counter records the extra dispatch.
        rows = [tuple(r) for r in store.trial_rows()]
        assert [r[:7] + r[8:] for r in rows] == \
            [r[:7] + r[8:] for r in expected]
        assert store.attempts(2) == 2

    def test_measuring_trial_is_remeasured_only(self, tmp_path):
        spec = _spec()
        store = ResultsStore()
        FleetDispatcher(spec, store=store, workdir=str(tmp_path),
                        measure=False).run()
        rows = [tuple(r) for r in store.trial_rows()]

        # Simulate a dispatcher that died between landing the result
        # row and finishing measurement: re-record trial 1's row (the
        # record API force-syncs the state row back to MEASURING).
        from repro.fuzzer import run_campaign
        trial = spec.expand()[1]
        store.record_trial(trial, run_campaign(trial.config),
                           attempts=1)
        assert store.trial_state(1)[0] == MEASURING

        summary = FleetDispatcher.from_store(store,
                                             measure=False).run()
        assert summary.remeasured == 1
        assert summary.requeued == 0
        assert summary.completed == 4
        assert store.trial_state(1)[0] == DONE
        assert [tuple(r) for r in store.trial_rows()] == rows

    def test_lost_trials_stay_lost_on_resume(self, tmp_path):
        spec = _spec()
        store = ResultsStore()
        FleetDispatcher(spec, store=store, workdir=str(tmp_path),
                        measure=False).run()
        from repro.fleet.store import LOST as LOST_STATE
        trial = spec.expand()[3]
        store.record_lost(trial, attempts=2)
        assert store.trial_state(3)[0] == LOST_STATE

        summary = FleetDispatcher.from_store(store,
                                             measure=False).run()
        assert summary.lost == [3]
        assert summary.completed == 3
        assert store.trial_state(3)[0] == LOST_STATE
