"""Fault injection and supervision for parallel fuzzing sessions.

Public surface:

* :class:`FaultEvent` / :class:`FaultPlan` — deterministic, seeded
  virtual-time fault schedules (``crash``, ``stall``, ``slow``,
  ``corrupt-sync``).
* :class:`FaultInjector` — session-facing cursor that fires each
  planned event exactly once.
* :class:`RestartPolicy` / :class:`SessionSupervisor` — exponential
  backoff, retry caps and per-instance health tracking used by
  :class:`repro.fuzzer.ParallelSession` to restart failed instances
  from their checkpoints.
* :class:`FleetFaultEvent` / :class:`FleetFaultPlan` — seeded
  dispatch-tick fault schedules for a multi-trial runner. Their
  executor was removed; the schema stays, with its tests, pending its
  own deletion (ROADMAP).
"""

from .fleetplan import (ARTIFACT_CORRUPT, ARTIFACT_TRUNCATE,
                        DISPATCHER_KILL, FLEET_FAULT_KINDS, STORE_LOCK,
                        WORKER_KILL, WORKER_STALL, FleetFaultEvent,
                        FleetFaultPlan)
from .injector import FaultInjector
from .plan import (CORRUPT_SYNC, CRASH, FAULT_KINDS, SLOW, STALL,
                   FaultEvent, FaultPlan)
from .supervisor import (DEAD, LOST, RUNNING, InstanceHealth,
                         RestartPolicy, SessionSupervisor)

__all__ = [
    "CRASH", "STALL", "SLOW", "CORRUPT_SYNC", "FAULT_KINDS",
    "FaultEvent", "FaultPlan", "FaultInjector",
    "RUNNING", "DEAD", "LOST",
    "InstanceHealth", "RestartPolicy", "SessionSupervisor",
    "DISPATCHER_KILL", "WORKER_KILL", "WORKER_STALL",
    "ARTIFACT_CORRUPT", "ARTIFACT_TRUNCATE", "STORE_LOCK",
    "FLEET_FAULT_KINDS", "FleetFaultEvent", "FleetFaultPlan",
]
