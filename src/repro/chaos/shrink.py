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

The minimal schedule plus its violations serialise to a ``repro.chaos/1``
JSON artifact that is self-contained: it carries the environment and
protocol config needed to rebuild the network and replay the failure
(``repro chaos --replay <artifact>``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.chaos.engine import (
    ChaosEnvironment,
    ChaosRunResult,
    run_schedule,
)
from repro.chaos.schedule import (
    SCHEMA,
    ChaosSchedule,
    protocol_config_from_json,
    protocol_config_to_json,
)
from repro.obs.export import write_json
from repro.protocol.config import ProtocolConfig


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
    max_runs: int = 300,
) -> ShrinkResult:
    """Reduce a failing run to a minimal reproducing event sequence.

    Operates on the run's materialized stream (triggers already resolved
    to timed events), so the minimal schedule replays with no reactive
    state.  ``max_runs`` caps re-executions; hitting the cap returns the
    best reduction found so far.
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
        if runs >= max_runs:
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
# replayable artifacts (the ``repro.chaos/1`` schema)
# ----------------------------------------------------------------------
def artifact_payload(
    shrink: ShrinkResult,
    config: ProtocolConfig,
    environment: "ChaosEnvironment | None" = None,
) -> dict:
    """The JSON document for one shrunk failure."""
    payload = {
        "schema": SCHEMA,
        "schedule": shrink.schedule.to_dict(),
        "violations": [v.as_dict() for v in shrink.violations],
        "shrunk_from": shrink.original_events,
        "shrink_runs": shrink.runs,
        "reproduced": shrink.reproduced,
        "config": protocol_config_to_json(config),
        "environment": (
            environment.to_dict() if environment is not None else None
        ),
        # The (K, b, D) triple spelled out explicitly: K and b shape the
        # *established* state (they live in the environment), D is the
        # RCC per-hop bound (it lives in the config).  Replays validate
        # this block against both so an artifact edited by hand — or one
        # replayed under drifted CLI defaults — fails loudly instead of
        # reproducing a different scenario byte-for-byte.
        "protocol": {
            "d_max": config.rcc.max_delay,
        },
    }
    if environment is not None:
        payload["protocol"].update(
            num_backups=environment.num_backups,
            mux_degree=environment.mux_degree,
        )
    return payload


def write_artifact(path, payload: dict) -> None:
    """Write one artifact document (pretty-printed, stable key order)."""
    write_json(payload, path)


def load_artifact(path) -> dict:
    """Read an artifact document, validating the schema marker."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    schema = payload.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: expected schema {SCHEMA!r}, found {schema!r}"
        )
    return payload


def _check_protocol_block(payload: dict, config: ProtocolConfig) -> None:
    """Cross-validate the artifact's explicit (K, b, D) block against the
    environment and config it also carries.  Old artifacts without the
    block pass unchecked (the config/environment remain authoritative)."""
    protocol = payload.get("protocol")
    if protocol is None:
        return
    mismatches = []
    d_max = protocol.get("d_max")
    if d_max is not None and d_max != config.rcc.max_delay:
        mismatches.append(
            f"d_max {d_max!r} != config rcc.max_delay "
            f"{config.rcc.max_delay!r}"
        )
    environment = payload.get("environment")
    if environment is not None:
        for key in ("num_backups", "mux_degree"):
            declared = protocol.get(key)
            recorded = environment.get(key)
            if declared is not None and declared != recorded:
                mismatches.append(
                    f"{key} {declared!r} != environment {key} {recorded!r}"
                )
    if mismatches:
        raise ValueError(
            "artifact protocol block contradicts its recorded "
            "environment/config: " + "; ".join(mismatches)
        )


def replay_artifact(payload: dict, network=None) -> ChaosRunResult:
    """Re-execute an artifact's schedule under its recorded config.

    ``network`` overrides the artifact's environment (tests replaying
    against a live network); otherwise the environment is rebuilt, which
    is what makes artifacts portable across machines.  Replays never read
    CLI defaults: everything comes from the artifact, and the explicit
    ``protocol`` block is validated against the recorded
    environment/config first.
    """
    config = protocol_config_from_json(payload["config"])
    _check_protocol_block(payload, config)
    schedule = ChaosSchedule.from_dict(payload["schedule"])
    if network is None:
        environment = payload.get("environment")
        if environment is None:
            raise ValueError(
                "artifact has no environment; pass the network explicitly"
            )
        network = ChaosEnvironment.from_dict(environment).build()
    return run_schedule(schedule, network, config)
