"""Chaos schedules: seeded, replayable fault-event streams.

A :class:`ChaosSchedule` is the unit the chaos engine executes: a list of
timed crash/repair :class:`ChaosEvent`\\ s, plus optional reactive
:class:`ChaosTrigger`\\ s that fire off rows of the run's live trace log
(e.g. *fail the backup while its activation is in flight*).  Schedules
are pure data — built once from a seed by a profile, serialised into the
``repro.chaos/2`` JSON artifact format, and replayed bit-identically on
any worker.

Triggers carry their target component pre-chosen at build time, so the
only runtime-dependent part of a trigger is *when* it fires.  The engine
records the resolved firing as a static event (the run result's
*materialized* stream), which is what the shrinker and replay operate on
— a shrunk artifact never needs live trace state to reproduce.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from repro.faults.models import component_from_json, component_to_json
from repro.sim.trace import KINDS

#: Artifact schema identifier (bumped on incompatible format changes).
SCHEMA = "repro.chaos/2"

#: The two injection actions.
FAIL = "fail"
REPAIR = "repair"


@dataclass(frozen=True, slots=True)
class ChaosEvent:
    """One timed injection: crash or repair one component."""

    time: float
    action: str  # FAIL | REPAIR
    component: object  # NodeId | LinkId

    def __post_init__(self) -> None:
        if self.action not in (FAIL, REPAIR):
            raise ValueError(f"unknown chaos action {self.action!r}")

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "action": self.action,
            "component": component_to_json(self.component),
        }

    @staticmethod
    def from_dict(data: dict) -> "ChaosEvent":
        return ChaosEvent(
            time=data["time"],
            action=data["action"],
            component=component_from_json(data["component"]),
        )


@dataclass(frozen=True, slots=True)
class ChaosTrigger:
    """A reactive injection armed on a row kind of the live trace log.

    When the run's first row of kind ``category`` appears (at time
    ``t``), the trigger injects ``action`` on ``component`` at
    ``t + delay``.  One firing per trigger; a run that never emits the
    kind never fires it.  A kind the log does not declare
    (:data:`repro.sim.trace.KINDS`) is rejected, so a typo cannot replay
    as a silent clean run.
    """

    category: str  # row kind to arm on (e.g. "activate")
    delay: float
    action: str  # FAIL | REPAIR
    component: object

    def __post_init__(self) -> None:
        if self.action not in (FAIL, REPAIR):
            raise ValueError(f"unknown chaos action {self.action!r}")
        if self.category not in KINDS:
            raise ValueError(
                f"unknown trigger kind {self.category!r}; known: "
                f"{', '.join(sorted(KINDS))}"
            )

    def to_dict(self) -> dict:
        return {
            "category": self.category,
            "delay": self.delay,
            "action": self.action,
            "component": component_to_json(self.component),
        }

    @staticmethod
    def from_dict(data: dict) -> "ChaosTrigger":
        return ChaosTrigger(
            category=data["category"],
            delay=data["delay"],
            action=data["action"],
            component=component_from_json(data["component"]),
        )


@dataclass(frozen=True)
class ChaosSchedule:
    """One replayable fault schedule (the chaos engine's work unit)."""

    seed: int
    profile: str
    horizon: float
    events: tuple = field(default_factory=tuple)
    triggers: tuple = field(default_factory=tuple)

    def with_events(self, events) -> "ChaosSchedule":
        """Copy with ``events`` replacing both events and triggers — the
        shrinker's move: triggers are already materialized into the static
        stream it bisects."""
        return dataclasses.replace(
            self, events=tuple(events), triggers=()
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "profile": self.profile,
            "horizon": self.horizon,
            "events": [event.to_dict() for event in self.events],
            "triggers": [trigger.to_dict() for trigger in self.triggers],
        }

    @staticmethod
    def from_dict(data: dict) -> "ChaosSchedule":
        return ChaosSchedule(
            seed=data["seed"],
            profile=data["profile"],
            horizon=data["horizon"],
            events=tuple(
                ChaosEvent.from_dict(event) for event in data["events"]
            ),
            triggers=tuple(
                ChaosTrigger.from_dict(trigger)
                for trigger in data.get("triggers", ())
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ChaosSchedule":
        return ChaosSchedule.from_dict(json.loads(text))
