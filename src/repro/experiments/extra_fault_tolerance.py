"""Extension experiment: coverage/crash retention under injected faults.

The paper's §V-D parallel evaluation assumes every instance survives to
the deadline; production fleets do not (OOM kills, hung targets,
corrupted sync directories — the failure regime Klees et al.'s
long-trial methodology makes unavoidable). This harness measures how
much of a fault-free session's discovery a supervised session retains
when instances fail mid-run:

* a 4-instance BigMap session on one benchmark is the baseline;
* fault plans at increasing rates (expected events per instance,
  seeded → fully reproducible) inject ``crash``, ``stall``, ``slow``
  and ``corrupt-sync`` events;
* each rate runs under two restart policies — *none* (failed instances
  stay down, the pre-supervision behavior) and *backoff* (checkpoint
  restore with exponential backoff).

Reported per cell: coverage retention (discovered locations vs. the
fault-free run), crash retention, total restarts and lost instances.
The headline: with supervision, moderate fault rates should retain the
large majority of fault-free coverage, while without restarts every
faulted instance's remaining budget is forfeited.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..analysis.reporting import render_table
from ..faults import FaultPlan, RestartPolicy
from ..fuzzer import CampaignConfig, ParallelSession
from .common import BenchmarkCache, Profile, get_profile

#: Runner registry id for this experiment (tests/statlint/
#: test_project_rules.py keeps the module, the registry and ORDER
#: consistent).
EXPERIMENT_ID = "fault-tolerance"

BENCHMARK = "libpng"
MAP_SIZE = 1 << 21
N_INSTANCES = 4
FAULT_RATES: Sequence[float] = (0.5, 1.0, 2.0)
PLAN_SEED = 0xFA117


def _policies(sync_interval: float) -> Dict[str, RestartPolicy]:
    return {
        # max_restarts=0: the supervisor never brings an instance back.
        "none": RestartPolicy(max_restarts=0),
        "backoff": RestartPolicy(max_restarts=5,
                                 backoff_base=sync_interval / 4.0,
                                 backoff_factor=2.0,
                                 backoff_cap=4.0 * sync_interval),
    }


def compute(profile: Profile, cache: BenchmarkCache = None,
            fault_rates: Sequence[float] = FAULT_RATES) -> Dict:
    cache = cache or BenchmarkCache()
    built = cache.get(BENCHMARK, profile.scale, profile.seed_scale)
    config = CampaignConfig(
        benchmark=BENCHMARK, fuzzer="bigmap", map_size=MAP_SIZE,
        scale=profile.scale, seed_scale=profile.seed_scale,
        virtual_seconds=profile.campaign_virtual_seconds,
        max_real_execs=max(profile.campaign_max_execs // N_INSTANCES,
                           500))

    # Small profiles usually exhaust the exec cap well before the
    # nominal virtual budget, so a plan drawn over the nominal horizon
    # would never fire. Probe the real session span first and schedule
    # faults (and sync slices) inside it.
    probe = ParallelSession(config, N_INSTANCES, built=built).run()
    span = min(r.virtual_seconds for r in probe.per_instance)
    horizon = span * 0.85
    sync_interval = max(span / 10.0, 1e-6)

    baseline = ParallelSession(config, N_INSTANCES, built=built,
                               sync_interval=sync_interval).run()
    out: Dict = {
        "baseline": {
            "discovered": baseline.discovered_locations,
            "crashes": baseline.unique_crashes,
            "execs": baseline.total_execs,
        },
        "cells": [],
    }
    for rate in fault_rates:
        plan = FaultPlan.generate(seed=PLAN_SEED, n_instances=N_INSTANCES,
                                  horizon=horizon, rate=rate,
                                  mean_duration=horizon / 10.0)
        for policy_name, policy in _policies(sync_interval).items():
            summary = ParallelSession(
                config, N_INSTANCES, built=built,
                sync_interval=sync_interval, fault_plan=plan,
                restart_policy=policy).run()
            discovered = summary.discovered_locations
            crashes = summary.unique_crashes
            out["cells"].append({
                "rate": rate,
                "policy": policy_name,
                "faults": summary.total_faults,
                "restarts": summary.total_restarts,
                "lost": len(summary.lost_instances),
                "quarantined": summary.quarantined_imports,
                "discovered": discovered,
                "crashes": crashes,
                "coverage_retention":
                    discovered / max(baseline.discovered_locations, 1),
                "crash_retention":
                    crashes / max(baseline.unique_crashes, 1)
                    if baseline.unique_crashes else 1.0,
            })
    return out


def run(profile: Profile, cache: BenchmarkCache = None) -> str:
    data = compute(profile, cache)
    base = data["baseline"]
    rows = []
    for cell in data["cells"]:
        rows.append([
            f"{cell['rate']:.1f}", cell["policy"], cell["faults"],
            cell["restarts"], cell["lost"],
            f"{100 * cell['coverage_retention']:.0f}%",
            f"{100 * cell['crash_retention']:.0f}%"])
    report = render_table(
        ["Rate", "Policy", "Faults", "Restarts", "Lost",
         "Coverage kept", "Crashes kept"],
        rows,
        title=f"Extension — fault tolerance, {N_INSTANCES}x bigmap on "
              f"{BENCHMARK} (baseline: {base['discovered']} locations, "
              f"{base['crashes']} crashes)")
    report += ("\n\nReading: 'none' forfeits each faulted instance's "
               "remaining budget; 'backoff' resumes it from its last "
               "checkpoint, so retention should stay near 100% until "
               "the fault rate swamps the restart budget. Plans are "
               "seeded — rerunning reproduces these numbers exactly.")
    return report


def main() -> None:
    print(run(get_profile("default")))


if __name__ == "__main__":
    main()
