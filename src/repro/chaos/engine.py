"""The chaos engine: execute schedules, audit invariants, fan out
campaigns.

:func:`run_schedule` replays one :class:`~repro.chaos.schedule.
ChaosSchedule` against a fresh :class:`~repro.protocol.runtime.
ProtocolSimulation` with an attached :class:`~repro.protocol.invariants.
InvariantAuditor`, checking invariants after every injected event and
exhaustively at quiescence.  Reactive triggers are armed on the run's
live trace log and their resolved firings recorded as static events, so
the result is always replayable without trigger state.

:func:`run_campaign` fans a batch of schedules over
:func:`repro.parallel.parallel_map`, inheriting its determinism
guarantee: each schedule is seeded independently at build time and runs
under a fresh per-item registry, so campaign results are bit-identical
for any worker count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.chaos.schedule import FAIL, ChaosEvent, ChaosSchedule
from repro.chaos.profiles import DEFAULT_PROFILES, build_schedule
from repro.channels.qos import FaultToleranceQoS
from repro.core.bcp import BCPNetwork
from repro.obs.registry import get_trace_sink
from repro.parallel import parallel_map
from repro.protocol.config import ProtocolConfig
from repro.protocol.invariants import InvariantAuditor, InvariantViolation
from repro.protocol.runtime import ProtocolSimulation
from repro.protocol.states import IllegalTransitionError
from repro.sim.trace import FLIGHT_ROWS, TraceLog, flight_record
from repro.util.rng import make_rng


def establish_antipodal(network: BCPNetwork, connections: int,
                        qos: FaultToleranceQoS) -> None:
    """Establish the deterministic chaos connection set: node ``i`` to the
    node half the network away, in ascending node order, until
    ``connections`` are up or the nodes run out — so one topology, ``qos``
    and count always yield the same established state."""
    nodes = sorted(network.topology.nodes())
    half = len(nodes) // 2
    established = 0
    for index in range(len(nodes)):
        if established >= connections:
            break
        src = nodes[index]
        dst = nodes[(index + half) % len(nodes)]
        if src == dst:
            continue
        network.establish(src, dst, ft_qos=qos)
        established += 1


@dataclass
class ChaosRunResult:
    """Outcome of one schedule execution."""

    schedule: ChaosSchedule
    #: Every invariant breach the auditor recorded, in detection order.
    violations: tuple = field(default_factory=tuple)
    #: The flattened injection stream: static events plus resolved
    #: trigger firings, in time order.  This is what the shrinker bisects
    #: and what a replay artifact stores.
    materialized: tuple = field(default_factory=tuple)
    final_time: float = 0.0
    drained: bool = True
    recovered: int = 0
    unrecoverable: int = 0
    rejoins: int = 0
    #: Flight recording (``repro.flight/2`` dict): the run's last rows
    #: before the auditor's verdict; ``None`` for clean runs.  Kept out
    #: of :meth:`as_dict` — it is dumped as its own artifact, next to the
    #: shrunk schedule.
    flight: "dict | None" = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "schedule": self.schedule.to_dict(),
            "violations": [v.as_dict() for v in self.violations],
            "materialized": [e.to_dict() for e in self.materialized],
            "final_time": self.final_time,
            "drained": self.drained,
            "recovered": self.recovered,
            "unrecoverable": self.unrecoverable,
            "rejoins": self.rejoins,
        }


def run_schedule(
    schedule: ChaosSchedule,
    network: BCPNetwork,
    config: "ProtocolConfig | None" = None,
) -> ChaosRunResult:
    """Execute one schedule against a fresh runtime and audit it.

    The run records into the session registry and trace sink (see
    :class:`~repro.protocol.runtime.ProtocolSimulation`) — without a
    sink, into a log that keeps only the last :data:`~repro.sim.trace.
    FLIGHT_ROWS` rows.  When the auditor records violations, the result
    carries a flight recording as a diagnosis artifact: the last rows of
    this run (never an earlier run's, even in a shared sink), parent ids
    included.
    """
    config = config or ProtocolConfig()
    sink = get_trace_sink()
    trace = sink if sink is not None else TraceLog(keep=FLIGHT_ROWS)
    first_row = trace.next_id
    simulation = ProtocolSimulation(network, config, trace=trace)
    auditor = InvariantAuditor(simulation)
    auditor.attach()
    engine = simulation.engine
    materialized: list[ChaosEvent] = []

    def inject(event: ChaosEvent) -> None:
        if event.action == FAIL:
            simulation._apply_failure(event.component)
        else:
            simulation._apply_repair(event.component)
        auditor.check_event()

    for event in schedule.events:
        materialized.append(event)
        engine.schedule_at(event.time, inject, event)

    # Reactive triggers: armed on the live log, one firing each;
    # the resolved injection joins the materialized stream so the run is
    # replayable (and shrinkable) as plain timed events.
    pending_triggers = list(schedule.triggers)
    listener = None
    if pending_triggers:
        def listener(row) -> None:
            for trigger in tuple(pending_triggers):
                if trigger.category != row.kind:
                    continue
                pending_triggers.remove(trigger)
                resolved = ChaosEvent(
                    time=engine.now + trigger.delay,
                    action=trigger.action,
                    component=trigger.component,
                )
                materialized.append(resolved)
                engine.schedule_at(resolved.time, inject, resolved)

        trace.subscribe(listener)

    aborted = False
    try:
        simulation.run(until=schedule.horizon)
    except IllegalTransitionError as exc:
        aborted = True
        auditor.record("illegal-transition", "state-machine", str(exc))
    finally:
        if listener is not None:
            trace.unsubscribe(listener)

    drained = engine.pending == 0
    if not drained and not aborted:
        auditor.record(
            "quiescence-timeout", "engine",
            f"{engine.pending} events still pending at horizon "
            f"{schedule.horizon:g} (the run failed to quiesce)",
        )
    auditor.check_quiescent(drained=drained and not aborted)
    auditor.detach()
    flight = None
    if auditor.violations:
        flight = flight_record(
            (row for row in trace.rows if row.id >= first_row),
            "invariant-violation",
            {
                "seed": schedule.seed,
                "horizon": schedule.horizon,
                "violations": [v.as_dict() for v in auditor.violations],
            },
        )
    materialized.sort(key=lambda event: event.time)
    return ChaosRunResult(
        schedule=schedule,
        violations=tuple(auditor.violations),
        materialized=tuple(materialized),
        final_time=engine.now,
        drained=drained,
        recovered=simulation.metrics.recovered_count(),
        unrecoverable=simulation.metrics.unrecoverable,
        rejoins=simulation.metrics.rejoins,
        flight=flight,
    )


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------
def build_campaign(
    seed: int,
    size: int,
    network: BCPNetwork,
    config: "ProtocolConfig | None" = None,
    profiles=DEFAULT_PROFILES,
) -> list[ChaosSchedule]:
    """Generate ``size`` schedules, rotating over ``profiles``.

    Per-item seeds are drawn from one parent RNG, so the campaign's
    contents depend only on ``seed`` — never on worker count or execution
    order.
    """
    if size < 1:
        raise ValueError(f"campaign size must be >= 1, got {size}")
    if not profiles:
        raise ValueError("campaign needs at least one profile")
    config = config or ProtocolConfig()
    parent = make_rng(seed)
    return [
        build_schedule(
            profiles[index % len(profiles)],
            parent.getrandbits(64),
            network,
            config,
        )
        for index in range(size)
    ]


def _campaign_item(
    schedule: ChaosSchedule, network: BCPNetwork, config: ProtocolConfig
) -> ChaosRunResult:
    return run_schedule(schedule, network, config)


def run_campaign(
    schedules,
    network: BCPNetwork,
    config: "ProtocolConfig | None" = None,
    workers: "int | None" = 1,
) -> list[ChaosRunResult]:
    """Run a batch of schedules, optionally across worker processes.

    Results come back in schedule order and are bit-identical for any
    worker count (each item runs under its own seed and fresh registry,
    folded into the session registry in order — see
    :func:`repro.parallel.parallel_map`).
    """
    config = config or ProtocolConfig()
    runner = functools.partial(_campaign_item, network=network, config=config)
    return parallel_map(runner, list(schedules), workers=workers)


def campaign_summary(results) -> dict:
    """Aggregate counts over a campaign's run results (report/CI gate)."""
    violations: dict[str, int] = {}
    failing = 0
    for result in results:
        if result.violations:
            failing += 1
        for violation in result.violations:
            violations[violation.invariant] = (
                violations.get(violation.invariant, 0) + 1
            )
    return {
        "runs": len(results),
        "failing_runs": failing,
        "violations": violations,
        "recovered": sum(r.recovered for r in results),
        "unrecoverable": sum(r.unrecoverable for r in results),
        "rejoins": sum(r.rejoins for r in results),
        "undrained": sum(1 for r in results if not r.drained),
    }


# Re-exported for artifact consumers.
__all__ = [
    "ChaosRunResult",
    "run_schedule",
    "build_campaign",
    "run_campaign",
    "campaign_summary",
    "InvariantViolation",
]
