"""Failing-schedule shrinking (delta debugging) and replay artifacts.

When a chaos run violates an invariant, the schedule that produced it is
usually mostly noise: flaps that never mattered, repairs after the bug
already fired.  :func:`shrink_failing_run` bisects the run's
*materialized* event stream with the classic ddmin algorithm until no
single chunk can be removed without losing the violation, re-executing
candidate schedules against the same network and seed each step.

The reproduction criterion is the *violation signature* — the set of
invariant names the original run tripped.  A candidate reproduces when
it trips at least one invariant from that signature; insisting on the
identical violation list would make shrinking brittle (removing events
legitimately changes times and counts without changing the bug).

The minimal schedule plus its violations serialise to a ``repro.chaos/2``
JSON artifact that is self-contained: it carries the one-cell
``repro.scenario/1`` spec the campaign ran, which is everything needed to
rebuild the network, derive the protocol config and replay the failure
(``repro chaos --replay <artifact>``); the block loads as a ``--spec``
file too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.chaos.engine import ChaosRunResult, run_schedule
from repro.chaos.schedule import SCHEMA, ChaosSchedule
from repro.obs.export import write_json
from repro.protocol.config import ProtocolConfig

#: Schedule re-executions one shrink may spend; hitting the cap returns
#: the best reduction found so far.
MAX_SHRINK_RUNS = 300


@dataclass
class ShrinkResult:
    """A minimal reproducing schedule and the work spent finding it."""

    schedule: ChaosSchedule
    violations: tuple = field(default_factory=tuple)
    #: Event count of the flattened original schedule.
    original_events: int = 0
    #: Schedule re-executions the shrink consumed.
    runs: int = 0
    #: Whether the flattened original reproduced at all (when it does
    #: not — e.g. a heisen-timing artifact — the result is the unshrunk
    #: schedule and this flag lets callers report that honestly).
    reproduced: bool = True

    @property
    def minimal_events(self) -> int:
        return len(self.schedule.events)


def violation_signature(violations) -> frozenset:
    """The set of invariant names a run tripped."""
    return frozenset(violation.invariant for violation in violations)


def _ddmin(events: list, test) -> list:
    """Classic ddmin over an event list: repeatedly drop the largest
    removable chunk, refining granularity until 1-event complements fail."""
    current = list(events)
    n = 2
    while len(current) >= 2:
        size = max(1, len(current) // n)
        chunks = [current[i:i + size] for i in range(0, len(current), size)]
        reduced = False
        for index in range(len(chunks)):
            complement = [
                event
                for j, chunk in enumerate(chunks)
                if j != index
                for event in chunk
            ]
            if complement and test(complement):
                current = complement
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(current):
                break
            n = min(len(current), n * 2)
    return current


def shrink_failing_run(
    result: ChaosRunResult,
    network,
    config: "ProtocolConfig | None" = None,
) -> ShrinkResult:
    """Reduce a failing run to a minimal reproducing event sequence.

    Operates on the run's materialized stream (triggers already resolved
    to timed events), so the minimal schedule replays with no reactive
    state.  At most :data:`MAX_SHRINK_RUNS` re-executions are spent.
    """
    if not result.violations:
        raise ValueError("nothing to shrink: the run violated no invariant")
    config = config or ProtocolConfig()
    signature = violation_signature(result.violations)
    base = result.schedule
    events = list(result.materialized)
    runs = 0
    cache: dict[tuple, bool] = {}

    def test(candidate: list) -> bool:
        nonlocal runs
        key = tuple(candidate)
        cached = cache.get(key)
        if cached is not None:
            return cached
        if runs >= MAX_SHRINK_RUNS:
            return False  # budget exhausted: treat as non-reproducing
        runs += 1
        outcome = run_schedule(base.with_events(candidate), network, config)
        reproduces = bool(
            signature & violation_signature(outcome.violations)
        )
        cache[key] = reproduces
        return reproduces

    flat = base.with_events(events)
    if not test(events):
        # The flattened schedule does not reproduce (timing-sensitive
        # trigger interplay): report the flat schedule unshrunk.
        rerun = run_schedule(flat, network, config)
        return ShrinkResult(
            schedule=flat,
            violations=rerun.violations,
            original_events=len(events),
            runs=runs,
            reproduced=False,
        )
    minimal = _ddmin(events, test)
    minimal_schedule = base.with_events(minimal)
    final = run_schedule(minimal_schedule, network, config)
    return ShrinkResult(
        schedule=minimal_schedule,
        violations=final.violations,
        original_events=len(events),
        runs=runs,
        reproduced=True,
    )


# ----------------------------------------------------------------------
# replayable artifacts (the ``repro.chaos/2`` schema)
# ----------------------------------------------------------------------
def artifact_payload(shrink: ShrinkResult, spec) -> dict:
    """The JSON document for one shrunk failure of the campaign that
    ``spec`` (a one-cell :class:`~repro.scenario.spec.ScenarioSpec`)
    describes."""
    return {
        "schema": SCHEMA,
        "scenario": spec.to_dict(),
        "schedule": shrink.schedule.to_dict(),
        "violations": [v.as_dict() for v in shrink.violations],
        "shrunk_from": shrink.original_events,
        "shrink_runs": shrink.runs,
        "reproduced": shrink.reproduced,
    }


def write_artifact(path, payload: dict) -> None:
    """Write one artifact document (pretty-printed, stable key order)."""
    write_json(payload, path)


def load_artifact(path) -> dict:
    """Read an artifact document, validating the schema marker."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    schema = payload.get("schema")
    if schema != SCHEMA:
        raise ValueError(f"expected schema {SCHEMA!r}, found {schema!r}")
    return payload


def replay_artifact(payload: dict) -> ChaosRunResult:
    """Re-execute an artifact's schedule on the network its scenario
    builds, under the protocol config the scenario derives — the network
    and config the campaign itself ran.  Nothing comes from CLI defaults,
    which is what makes artifacts portable across machines."""
    # Imported here: the scenario package builds on this one.
    from repro.scenario import ScenarioSpec, build_loaded_network

    spec = ScenarioSpec.from_dict(payload["scenario"])
    schedule = ChaosSchedule.from_dict(payload["schedule"])
    return run_schedule(
        schedule, build_loaded_network(spec), spec.protocol.config()
    )
