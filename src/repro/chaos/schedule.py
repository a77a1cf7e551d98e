"""Chaos schedules: seeded, replayable fault-event streams.

A :class:`ChaosSchedule` is the unit the chaos engine executes: a list of
timed crash/repair :class:`ChaosEvent`\\ s, plus optional reactive
:class:`ChaosTrigger`\\ s that fire off live trace events (e.g. *fail the
backup while its activation is in flight*).  Schedules are pure data —
built once from a seed by a profile, serialised to the ``repro.chaos/1``
JSON artifact format, and replayed bit-identically on any worker.

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
from repro.protocol.config import ProtocolConfig, RCCParams, SwitchingScheme

#: Artifact schema identifier (bumped on incompatible format changes).
SCHEMA = "repro.chaos/1"

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
    """A reactive injection armed on a live trace category.

    When the run's first trace event of ``category`` appears (at time
    ``t``), the trigger injects ``action`` on ``component`` at
    ``t + delay``.  One firing per trigger; a run whose trace never shows
    the category simply never fires it.
    """

    category: str  # trace category to arm on (e.g. "activation")
    delay: float
    action: str  # FAIL | REPAIR
    component: object

    def __post_init__(self) -> None:
        if self.action not in (FAIL, REPAIR):
            raise ValueError(f"unknown chaos action {self.action!r}")

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


# ----------------------------------------------------------------------
# protocol-config codec (artifacts must replay under the exact config)
# ----------------------------------------------------------------------
def protocol_config_to_json(config: ProtocolConfig) -> dict:
    """JSON-safe encoding of a :class:`ProtocolConfig` (full fidelity)."""
    data = dataclasses.asdict(config)
    data["scheme"] = config.scheme.value
    return data


def _field_names(cls) -> set:
    return {spec.name for spec in dataclasses.fields(cls)}


def protocol_config_from_json(data: dict) -> ProtocolConfig:
    """Inverse of :func:`protocol_config_to_json`.

    Keys that are not :class:`ProtocolConfig` (or, under ``rcc``,
    :class:`RCCParams`) fields are rejected: the artifact was recorded
    under a protocol this build does not have, and dropping them would
    replay a different scenario.  So is an artifact without ``scheme`` or
    ``rcc``, which every recorded one carries.  Either way: one
    ``ValueError`` naming the keys.
    """
    data = dict(data)
    missing = sorted({"scheme", "rcc"} - set(data))
    if missing:
        raise ValueError(f"missing protocol config key(s) {missing}")
    if not isinstance(data["rcc"], dict):
        raise ValueError("protocol config key 'rcc' must be an object")
    unknown = sorted(set(data) - _field_names(ProtocolConfig)) + sorted(
        f"rcc.{key}" for key in set(data["rcc"]) - _field_names(RCCParams)
    )
    if unknown:
        raise ValueError(
            f"unknown protocol config key(s) {unknown}: the artifact was "
            f"recorded under a protocol variant this build does not have "
            f"(one recorded under a test-side variant replays only "
            f"through the test harness)"
        )
    data["scheme"] = SwitchingScheme(data["scheme"])
    data["rcc"] = RCCParams(**data["rcc"])
    return ProtocolConfig(**data)
