"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate on the specific failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro package."""


class MapSizeError(ReproError, ValueError):
    """An invalid coverage-map size was requested.

    Map sizes must be positive. AFL additionally requires power-of-two sizes
    because edge keys are reduced with a mask; we enforce the same rule for
    both data structures so keys are interchangeable between them.
    """


class MapFullError(ReproError, RuntimeError):
    """BigMap's condensed coverage bitmap ran out of free slots.

    This can only happen when the number of *distinct* keys observed exceeds
    the map size, i.e. the map is undersized for the target. AFL silently
    aliases in that situation; BigMap makes the condition explicit.
    """


class KeyRangeError(ReproError, ValueError):
    """A coverage key fell outside ``[0, map_size)``.

    Instrumentation is responsible for reducing raw hashes into the map
    range; receiving an out-of-range key indicates a broken metric pipeline.
    """


class TraceShapeError(ReproError, ValueError):
    """Edge-trace arrays passed to ``update`` were malformed.

    ``keys`` and ``counts`` must be one-dimensional arrays of equal length.
    """


class CalibrationError(ReproError, ValueError):
    """A memory-model calibration parameter was out of its valid domain."""


class CampaignConfigError(ReproError, ValueError):
    """A fuzzing-campaign configuration was internally inconsistent."""


class ProgramValidationError(ReproError, ValueError):
    """A synthetic target :class:`~repro.target.Program` violated a
    structural invariant (see ``Program.validate``)."""


class ProgramSpecError(ReproError, ValueError):
    """A :class:`~repro.target.ProgramSpec` was internally inconsistent."""


class FaultPlanError(ReproError, ValueError):
    """A fault-injection plan (:mod:`repro.faults`) was malformed.

    Raised for unknown event kinds, negative times/durations, or events
    addressed to instances a session does not have.
    """


class InstanceFaultError(ReproError, RuntimeError):
    """An unplanned exception inside a supervised parallel instance.

    The session supervisor converts arbitrary instance failures into
    this class (original exception chained as ``__cause__``) instead of
    swallowing them: the failure enters the fault accounting — restart
    scheduling, per-instance failure logs, the summary's
    ``unplanned_failures`` — with its type and message intact.
    """

    @classmethod
    def wrap(cls, instance: int, exc: BaseException,
             during: str = "run") -> "InstanceFaultError":
        fault = cls(f"instance {instance} ({during}): {exc!r}")
        fault.__cause__ = exc
        return fault


class CheckpointError(ReproError, RuntimeError):
    """A campaign snapshot/restore operation was invalid.

    Raised when snapshotting a campaign that has not been started, or
    restoring a checkpoint onto a campaign with a different
    configuration.
    """


class TelemetryError(ReproError, ValueError):
    """A telemetry record violated the event schema or metric contract.

    Raised when an event is emitted with an unknown kind or a payload
    that does not match :data:`repro.telemetry.events.EVENT_SCHEMA`, or
    when a metric is re-registered with incompatible parameters.
    Producer-side validation keeps the JSONL stream schema-valid by
    construction; consumers re-validate with
    :func:`repro.telemetry.events.validate_event`.
    """


class ExperimentError(ReproError, RuntimeError):
    """An experiment harness failed while regenerating a report.

    Wraps the underlying exception so the runner can report which
    experiment failed (and, with ``--keep-going``, continue with the
    rest) while preserving the original traceback as ``__cause__``.
    """


class ArtifactIntegrityError(ReproError, RuntimeError):
    """A sealed artifact failed its integrity check.

    Raised by :mod:`repro.fleet.artifacts` when a sealed artifact is
    truncated, bit-corrupt, or missing its trailer, so the caller can
    quarantine the file and fall back to its last good state.
    """
