"""Unit tests for the fault-injection primitives (repro.faults)."""

import math

import pytest

from repro.core.errors import FaultPlanError
from repro.faults import (CRASH, DEAD, FAULT_KINDS, LOST, RUNNING, SLOW,
                          FaultEvent, FaultInjector, FaultPlan,
                          RestartPolicy, SessionSupervisor)

NON_FINITE = [math.nan, math.inf, -math.inf]


class TestFaultEvent:
    def test_valid_kinds(self):
        for kind in FAULT_KINDS:
            FaultEvent(time=1.0, instance=0, kind=kind)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=1.0, instance=0, kind="meltdown")

    def test_negative_time_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=-0.1, instance=0, kind=CRASH)

    def test_negative_instance_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=0.1, instance=-1, kind=CRASH)

    def test_sub_unity_magnitude_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=0.1, instance=0, kind=SLOW, magnitude=0.5)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["time", "duration", "magnitude"])
    def test_non_finite_rejected(self, field, value):
        # NaN passes every ``< 0`` check, and an event at time NaN
        # would never fire.
        kwargs = dict(time=1.0, instance=0, kind=SLOW, duration=1.0,
                      magnitude=2.0)
        with pytest.raises(FaultPlanError):
            FaultEvent(**dict(kwargs, **{field: value}))


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert len(FaultPlan()) == 0
        assert FaultPlan([FaultEvent(1.0, 0, CRASH)])

    def test_events_sorted_by_time(self):
        plan = FaultPlan([FaultEvent(2.0, 0, CRASH),
                          FaultEvent(1.0, 1, CRASH)])
        assert [e.time for e in plan] == [1.0, 2.0]

    def test_window_query(self):
        plan = FaultPlan([FaultEvent(1.0, 0, CRASH),
                          FaultEvent(2.0, 0, CRASH),
                          FaultEvent(1.5, 1, CRASH)])

        def window(instance, start, end):
            # A fresh injector per query: take() marks events fired.
            return len(FaultInjector(plan).take(instance, start, end))

        assert window(0, 0.0, 2.0) == 1   # end exclusive
        assert window(0, 1.0, 2.5) == 2   # start inclusive
        assert window(1, 0.0, 2.0) == 1

    def test_validate_for_fleet(self):
        plan = FaultPlan([FaultEvent(1.0, 3, CRASH)])
        plan.validate_for(4)
        with pytest.raises(FaultPlanError):
            plan.validate_for(3)

    def test_generation_is_deterministic(self):
        kwargs = dict(seed=42, n_instances=4, horizon=10.0, rate=2.0)
        a = FaultPlan.generate(**kwargs)
        b = FaultPlan.generate(**kwargs)
        assert a.events == b.events
        c = FaultPlan.generate(**dict(kwargs, seed=43))
        assert a.events != c.events

    def test_generation_respects_bounds(self):
        plan = FaultPlan.generate(seed=7, n_instances=3, horizon=5.0,
                                  rate=3.0)
        assert len(plan) > 0
        for event in plan:
            assert 0.0 <= event.time < 5.0
            assert 0 <= event.instance < 3
            assert event.kind in FAULT_KINDS

    def test_generation_validates_inputs(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.generate(seed=1, n_instances=0, horizon=1.0, rate=1.0)
        with pytest.raises(FaultPlanError):
            FaultPlan.generate(seed=1, n_instances=1, horizon=0.0, rate=1.0)
        with pytest.raises(FaultPlanError):
            FaultPlan.generate(seed=1, n_instances=1, horizon=1.0,
                               rate=1.0, kinds=("meltdown",))

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["horizon", "rate", "mean_duration"])
    def test_generation_rejects_non_finite(self, field, value):
        kwargs = dict(seed=1, n_instances=2, horizon=10.0, rate=1.0,
                      mean_duration=1.0)
        with pytest.raises(FaultPlanError):
            FaultPlan.generate(**dict(kwargs, **{field: value}))


class TestFaultInjector:
    def test_events_fire_exactly_once(self):
        plan = FaultPlan([FaultEvent(1.0, 0, CRASH)])
        injector = FaultInjector(plan)
        assert len(injector.take(0, 0.0, 2.0)) == 1
        # A checkpoint-restored instance re-entering the window must not
        # replay the fault.
        assert injector.take(0, 0.0, 2.0) == []
        assert injector.fired_events == 1

    def test_equal_events_fire_once_each(self):
        # Two identical planned crashes are two faults: the injected
        # count must equal len(plan).
        plan = FaultPlan([FaultEvent(1.0, 0, CRASH),
                          FaultEvent(1.0, 0, CRASH)])
        injector = FaultInjector(plan)
        assert len(injector.take(0, 0.0, 2.0)) == 2
        assert injector.take(0, 0.0, 2.0) == []
        assert injector.fired_events == len(plan) == 2

    def test_none_plan_is_empty(self):
        injector = FaultInjector(None)
        assert injector.take(0, 0.0, 100.0) == []


class TestRestartPolicy:
    def test_exponential_backoff_with_cap(self):
        policy = RestartPolicy(backoff_base=1.0, backoff_factor=2.0,
                               backoff_cap=5.0)
        assert policy.backoff(0) == 1.0
        assert policy.backoff(1) == 2.0
        assert policy.backoff(2) == 4.0
        assert policy.backoff(3) == 5.0   # capped
        assert policy.backoff(10) == 5.0


class TestSessionSupervisor:
    def test_restart_budget_then_lost(self):
        sup = SessionSupervisor(2, RestartPolicy(max_restarts=1,
                                                 backoff_base=0.5))
        assert sup.live_indices() == [0, 1]
        assert sup.mark_failed(0, now=1.0, reason="crash") == DEAD
        assert sup[0].restart_at == pytest.approx(1.5)
        sup.mark_restarted(0)
        assert sup[0].status == RUNNING and sup[0].restarts == 1
        # Budget exhausted: the next failure is terminal.
        assert sup.mark_failed(0, now=2.0, reason="crash") == LOST
        assert sup.lost_indices() == [0]
        assert sup.live_indices() == [1]

    def test_failure_resets_fault_windows(self):
        sup = SessionSupervisor(1)
        sup[0].slow_factor = 4.0
        sup[0].slow_until = 9.0
        sup[0].stalled_since = 1.0
        sup.mark_failed(0, now=2.0, reason="stall")
        assert sup[0].slow_factor == 1.0
        assert sup[0].stalled_since is None
        assert sup[0].failures and "stall" in sup[0].failures[0]
