"""Deterministic chaos campaigns over the BCP protocol runtime.

The chaos subsystem answers one question: *does the recovery protocol
keep its invariants under adversarial failure timing?*  It has four
parts:

* :mod:`repro.chaos.schedule` — seeded, replayable fault schedules
  (timed crash/repair events plus trace-armed reactive triggers) with
  their JSON codec,
* :mod:`repro.chaos.profiles` — generators for the interesting failure
  shapes (link flapping, correlated regional failures, cascades,
  failure-during-recovery, backup-before-primary, repair/rejoin races),
* :mod:`repro.chaos.engine` — schedule execution with a live
  :class:`~repro.protocol.invariants.InvariantAuditor`, and campaign
  fan-out over :func:`repro.parallel.parallel_map` (bit-identical for
  any worker count),
* :mod:`repro.chaos.shrink` — ddmin reduction of failing schedules to
  minimal reproducing event sequences, exported as ``repro.chaos/2``
  replay artifacts that carry the scenario cell they ran.

Entry points: ``build_campaign`` + ``run_campaign`` for sweeps,
``run_schedule`` for one schedule, ``shrink_failing_run`` +
``write_artifact`` when something breaks, ``replay_artifact`` to
re-execute a saved failure.  The ``repro chaos`` CLI subcommand wraps
the whole loop.
"""

from repro.chaos.engine import (
    ChaosRunResult,
    build_campaign,
    campaign_summary,
    run_campaign,
    run_schedule,
)
from repro.chaos.profiles import DEFAULT_PROFILES, PROFILES, build_schedule
from repro.chaos.schedule import (
    FAIL,
    REPAIR,
    SCHEMA,
    ChaosEvent,
    ChaosSchedule,
    ChaosTrigger,
)
from repro.chaos.shrink import (
    ShrinkResult,
    artifact_payload,
    load_artifact,
    replay_artifact,
    shrink_failing_run,
    violation_signature,
    write_artifact,
)

__all__ = [
    "ChaosRunResult",
    "ChaosEvent",
    "ChaosSchedule",
    "ChaosTrigger",
    "ShrinkResult",
    "FAIL",
    "REPAIR",
    "SCHEMA",
    "PROFILES",
    "DEFAULT_PROFILES",
    "build_schedule",
    "build_campaign",
    "run_campaign",
    "run_schedule",
    "campaign_summary",
    "shrink_failing_run",
    "violation_signature",
    "artifact_payload",
    "write_artifact",
    "load_artifact",
    "replay_artifact",
]
