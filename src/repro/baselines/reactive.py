"""Reactive re-establishment ([BAN93]-style baseline).

No resources are reserved for fault-tolerance.  When a failure disables a
primary channel, the source attempts to establish a *new* channel from
scratch in the residual network, competing with every other disrupted
connection for what capacity is left.  The paper's critique (Section 8):
"it does not give any guarantee on failure recovery", and contention can
force repeated attempts.

The evaluation here replays that process combinatorially: disrupted
connections re-route one at a time, in connection-id order, over the
residual network (the topology with the failed components excluded from
every search) with live capacity accounting, under the same delay QoS
as the original channel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.core.bcp import BCPNetwork
from repro.faults.models import FailureScenario
from repro.network.reservations import ReservationLedger
from repro.routing.shortest import (
    NoPathError,
    RouteConstraints,
    hop_distance,
    shortest_path,
)


class ReactiveOutcome(enum.Enum):
    """Per-connection result of a reactive recovery attempt."""

    REROUTED = "rerouted"
    NO_ROUTE = "no_route"           # no QoS-feasible path in the residual net
    NO_CAPACITY = "no_capacity"     # paths exist but bandwidth is taken
    EXCLUDED = "excluded"           # an end-node failed


@dataclass
class ReactiveResult:
    """Outcome of one scenario under reactive re-establishment."""

    scenario: FailureScenario
    outcomes: dict[int, ReactiveOutcome] = field(default_factory=dict)
    #: Hop count of each successful replacement path.
    new_hops: dict[int, int] = field(default_factory=dict)

    @property
    def failed_primaries(self) -> int:
        return sum(
            1
            for outcome in self.outcomes.values()
            if outcome is not ReactiveOutcome.EXCLUDED
        )


def evaluate_reactive(
    network: BCPNetwork, scenario: FailureScenario
) -> ReactiveResult:
    """Replay reactive recovery for one failure scenario.

    ``network`` should normally be loaded with zero-backup connections (no
    spare anywhere); backups, if present, are ignored — this baseline never
    uses them.  The network is not mutated.
    """
    topology = network.topology
    failed_components = scenario.components(topology)
    residual = RouteConstraints(
        excluded_nodes=scenario.failed_nodes,
        excluded_links=scenario.failed_links,
    )
    # Fresh ledger holding the surviving primaries' reservations.
    ledger = ReservationLedger(topology)
    disrupted = []
    result = ReactiveResult(scenario=scenario)
    for connection in network.connections():
        if scenario.hits_endpoint(connection.source, connection.destination):
            if connection.primary.fails_under(failed_components):
                result.outcomes[connection.connection_id] = (
                    ReactiveOutcome.EXCLUDED
                )
            continue
        if connection.primary.fails_under(failed_components):
            disrupted.append(connection)
            continue
        ledger.reserve_primary_path(
            connection.primary.path.links, connection.traffic.bandwidth
        )

    disrupted.sort(key=lambda conn: conn.connection_id)
    for connection in disrupted:
        bandwidth = connection.traffic.bandwidth
        try:
            shortest_possible = hop_distance(
                topology, connection.source, connection.destination
            )
        except NoPathError:  # pragma: no cover - original net is connected
            shortest_possible = 0
        within_qos = replace(
            residual, max_hops=connection.delay_qos.max_hops(shortest_possible)
        )
        try:
            path = shortest_path(
                topology, connection.source, connection.destination,
                replace(
                    within_qos,
                    link_admissible=ledger.capacity_floor(bandwidth),
                ),
            )
        except NoPathError:
            # Distinguish "no path at all within QoS" from "paths exist but
            # capacity is gone" — the latter is the contention the paper
            # warns about.
            try:
                shortest_path(
                    topology, connection.source, connection.destination,
                    within_qos,
                )
            except NoPathError:
                result.outcomes[connection.connection_id] = (
                    ReactiveOutcome.NO_ROUTE
                )
            else:
                result.outcomes[connection.connection_id] = (
                    ReactiveOutcome.NO_CAPACITY
                )
            continue
        ledger.reserve_primary_path(path.links, bandwidth)
        result.outcomes[connection.connection_id] = ReactiveOutcome.REROUTED
        result.new_hops[connection.connection_id] = path.hops
    return result
