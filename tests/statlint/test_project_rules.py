"""SNAP001/EXP001: drift between hand-maintained parallel structures:
campaign state vs the checkpoint snapshot, experiment modules vs the
runner registry. Both run the real objects rather than reading source,
so dynamically set attributes and registrations count too."""

import importlib
import pkgutil
from types import ModuleType, SimpleNamespace

import pytest

from lint_helpers import (EXPERIMENT_PREFIXES, registry_problems,
                          snapshot_drift, started_campaign)


def drift(snap=lambda c: (c.execs, c.hangs, c.model), exempt=("config",),
          **grown):
    campaign = SimpleNamespace(config={}, execs=0, hangs=0, model=0, **grown)
    return snapshot_drift(campaign, snap, exempt)


class TestSnapshotCoverage:
    def test_full_coverage_is_clean(self):
        assert drift() == []

    def test_uncovered_field_fires(self):
        assert drift(snap=lambda c: (c.execs, c.model)) == [
            "hangs: not captured and not exempt"]

    def test_new_campaign_field_fires(self):
        assert drift(restarts=0) == ["restarts: not captured and not exempt"]

    def test_exempt_field_is_clean(self):
        assert drift(exempt=("config", "restarts"), restarts=0) == []

    def test_getattr_read_counts_as_captured(self):
        assert drift(snap=lambda c: (c.execs, getattr(c, "hangs", 0),
                                     c.model)) == []

    def test_stale_exemption_captured_field_fires(self):
        assert drift(exempt=("config", "execs")) == [
            "execs: exempt but captured"]

    def test_stale_exemption_unknown_field_fires(self):
        assert drift(exempt=("config", "gone")) == [
            "gone: exempt but never set"]


@pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
def test_shipped_snapshot_covers_the_campaign(fuzzer):
    from repro.fuzzer.checkpoint import snapshot_campaign
    assert snapshot_drift(started_campaign(fuzzer), snapshot_campaign) == []


def problems(name="fig1_demo", doc="Demo.", experiment_id="fig1",
             run=print, order=("fig1",)):
    module = ModuleType(name, doc)
    module.EXPERIMENT_ID, module.run = experiment_id, run
    # The registry maps a key to a module's run(); only its __module__ counts.
    registered = {"fig1": SimpleNamespace(__module__="pkg.fig1_demo")}
    return registry_problems({name: module}, registered, order)


class TestExperimentRegistry:
    def test_registered_with_metadata_is_clean(self):
        assert problems() == []

    def test_unregistered_module_fires(self):
        assert problems(name="fig2_orphan") == [
            "fig2_orphan: not registered in EXPERIMENTS"]

    def test_missing_experiment_id_fires(self):
        (problem,) = problems(experiment_id=None)
        assert "EXPERIMENT_ID None" in problem

    def test_mismatched_experiment_id_fires(self):
        (problem,) = problems(experiment_id="fig99")
        assert "is not the registry key 'fig1'" in problem

    def test_missing_docstring_fires(self):
        assert problems(doc=None) == ["fig1_demo: no module docstring"]

    def test_missing_run_fires(self):
        assert problems(run=None) == ["fig1_demo: no run() entry point"]

    def test_registered_but_not_in_order_fires(self):
        assert problems(order=()) == [
            "fig1_demo: registered but missing from ORDER"]

    def test_order_entry_without_registration_fires(self):
        assert problems(order=("fig1", "ghost")) == [
            "ghost: in ORDER but not registered"]


def test_shipped_registry_is_consistent():
    from repro import experiments
    from repro.experiments import runner
    modules = {info.name: importlib.import_module(
        f"repro.experiments.{info.name}")
        for info in pkgutil.iter_modules(experiments.__path__)
        if info.name.startswith(EXPERIMENT_PREFIXES)}
    assert len(modules) >= 13
    assert registry_problems(modules, runner.EXPERIMENTS, runner.ORDER) == []
