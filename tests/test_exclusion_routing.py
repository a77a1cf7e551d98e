"""A failure is a set of route exclusions, held to the residual copy.

The reactive baseline routes "in the residual network".  It searches the
network's own topology with the failed components passed as
``RouteConstraints`` exclusions; the oracle is the
residual network built as a second, shrunken ``Topology``
(``tests/routing_oracle.py::residual_topology``).  Here both reactive
searches — the capacity-floor search and the exclusion-only probe that
tells NO_ROUTE from NO_CAPACITY — run both ways in lockstep, the residual
side on the copy with a ledger of its own, and must return the same path
(or none) every time.  Every single-link and single-node failure and a
seeded double-node sample, on three small, tightly loaded networks, so
that capacity runs out.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro import BCPNetwork, FaultToleranceQoS
from repro.baselines import ReactiveOutcome, evaluate_reactive
from repro.core.bcp import EstablishmentError
from repro.faults import (
    all_single_link_failures,
    all_single_node_failures,
    sample_double_node_failures,
)
from repro.network import mesh, ring, torus
from repro.network.reservations import ReservationLedger
from repro.routing import NoPathError, RouteConstraints, hop_distance, shortest_path
from tests.routing_oracle import residual_topology

NETWORKS = {
    "torus 4x4": lambda: torus(4, 4, capacity=10.0),
    "mesh 4x4": lambda: mesh(4, 4, capacity=10.0),
    "ring 8": lambda: ring(8, capacity=6.0),
}


def loaded(topology) -> BCPNetwork:
    """All pairs at K=0, as far as capacity lets them in."""
    network = BCPNetwork(topology)
    qos = FaultToleranceQoS(num_backups=0, mux_degree=0)
    nodes = list(topology.nodes())
    for src in nodes:
        for dst in nodes:
            if src != dst:
                try:
                    network.establish(src, dst, ft_qos=qos)
                except EstablishmentError:
                    pass
    return network


def route(topology, src, dst, constraints):
    try:
        return shortest_path(topology, src, dst, constraints).nodes
    except NoPathError:
        return None


def replay(network: BCPNetwork, scenario) -> dict:
    """The reactive replay, each search made both ways; returns the
    outcomes, after asserting that the two ways agree on every search."""
    topology = network.topology
    components = scenario.components(topology)
    residual = residual_topology(
        topology, scenario.failed_nodes,
        [c for c in components if c not in scenario.failed_nodes],
    )
    excluded = RouteConstraints(excluded_nodes=scenario.failed_nodes,
                                excluded_links=scenario.failed_links)
    live, copy = ReservationLedger(topology), ReservationLedger(residual)
    disrupted = []
    for connection in network.connections():
        if scenario.hits_endpoint(connection.source, connection.destination):
            continue
        if connection.primary.fails_under(components):
            disrupted.append(connection)
            continue
        for ledger in (live, copy):
            ledger.reserve_primary_path(connection.primary.path.links,
                                        connection.traffic.bandwidth)
    outcomes = {}
    for connection in sorted(disrupted, key=lambda c: c.connection_id):
        src, dst = connection.source, connection.destination
        bandwidth = connection.traffic.bandwidth
        max_hops = connection.delay_qos.max_hops(hop_distance(topology, src, dst))
        within_qos = replace(excluded, max_hops=max_hops)
        floor = route(topology, src, dst, replace(
            within_qos, link_admissible=live.capacity_floor(bandwidth)))
        assert floor == route(residual, src, dst, RouteConstraints(
            link_admissible=copy.capacity_floor(bandwidth), max_hops=max_hops
        )), (scenario, connection.connection_id)
        probe = route(topology, src, dst, within_qos)
        assert probe == route(residual, src, dst, RouteConstraints(
            max_hops=max_hops
        )), (scenario, connection.connection_id)
        if floor is None:
            outcomes[connection.connection_id] = (
                ReactiveOutcome.NO_ROUTE if probe is None
                else ReactiveOutcome.NO_CAPACITY)
            continue
        outcomes[connection.connection_id] = ReactiveOutcome.REROUTED
        path_links = [topology.link(u, v) for u, v in zip(floor, floor[1:])]
        for ledger in (live, copy):
            ledger.reserve_primary_path(path_links, bandwidth)
    return outcomes


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_exclusions_route_as_the_residual_copy(name):
    network = loaded(NETWORKS[name]())
    topology = network.topology
    scenarios = [
        *all_single_link_failures(topology),
        *all_single_node_failures(topology),
        *sample_double_node_failures(topology, 24, seed=3),
    ]
    seen = Counter()
    for scenario in scenarios:
        outcomes = replay(network, scenario)
        product = evaluate_reactive(network, scenario).outcomes
        assert {cid: outcome for cid, outcome in product.items()
                if outcome is not ReactiveOutcome.EXCLUDED} == outcomes
        seen.update(outcomes.values())
    # The comparison is not vacuous: searches found routes and ran out of
    # capacity (the mesh corners and the ring also find no route at all
    # within the delay QoS).
    assert seen[ReactiveOutcome.REROUTED] > 0
    assert seen[ReactiveOutcome.NO_CAPACITY] > 0, seen
