"""Differential tests: the one compiled plan against the two compiles it
replaced (``tests/plan_oracle.py``), lookup by lookup, over a seeded walk
of establishments, teardowns and backup-degree adjustments; and a pinned
plan against every later change to its network."""

from __future__ import annotations

import random

import pytest

from repro import BCPNetwork, FaultToleranceQoS
from repro.core.establishment import EstablishmentError
from repro.core.plan import network_plan
from repro.network.generators import torus
from repro.protocol.plan import node_tables
from tests.plan_oracle import ProtocolPlan, RecoveryPlan

#: (ν, K) of the walk's connections.
SETTINGS = [(1, 1), (1, 2), (3, 1), (3, 2)]


def decoded(mask: int, space) -> frozenset:
    """The components behind a backup mask (bit positions differ between
    two interners; the components they stand for must not)."""
    return frozenset(
        component for component, bit in space._bits.items() if mask & bit
    )


def recovery_lookups(plan, count: int, components: list) -> dict:
    """Every evaluator lookup of ``plan``, filled and flattened."""
    records = []
    for position in range(count):
        record = plan.record(position)
        records.append((
            record.connection_id, record.mux_degree, record.bandwidth,
            record.source, record.destination,
            tuple((serial, decoded(mask, plan.space), links)
                  for serial, mask, links in record.backups),
        ))
    return {
        "records": records,
        "primaries_on": {
            component: list(plan.primaries_on(component))
            for component in components
        },
        "priority_ordered": plan.priority_ordered,
        "links": plan.links,
    }


def protocol_lookups(tables: dict, topology, connection_ids: list) -> dict:
    """Every daemon lookup of the per-node ``tables``, filled."""
    lookups = {}
    for node, table in tables.items():
        records = table.records()
        # The old index is a plain dict; the new one fills on ``[]``.
        by_neighbour = table.by_neighbour
        read = (
            (lambda neighbour: by_neighbour.get(neighbour, ()))
            if type(by_neighbour) is dict else by_neighbour.__getitem__
        )
        neighbours = sorted(
            set(topology.successors(node)) | set(topology.predecessors(node))
        )
        lookups[node] = {
            "channels": list(table.channels),
            "positions": {
                channel_id: records[channel_id].index
                for channel_id in table.channels
            },
            "records": dict(records.items()),
            "views": dict(table.views().items()),
            "by_neighbour": {
                neighbour: tuple(read(neighbour)) for neighbour in neighbours
            },
            "channels_of": {
                connection_id: table.channels_of(connection_id)
                for connection_id in connection_ids
            },
        }
    return lookups


def oracle_lookups(network: BCPNetwork) -> tuple[dict, dict]:
    """Both old compiles of ``network`` as it is now, read at once."""
    topology = network.topology
    components = [*topology.nodes(), *topology.links()]
    ids = [connection.connection_id for connection in network.connections()]
    return (
        recovery_lookups(RecoveryPlan(network), len(ids), components),
        protocol_lookups(ProtocolPlan(network).tables, topology, ids),
    )


def plan_lookups(plan, topology) -> tuple[dict, dict]:
    components = [*topology.nodes(), *topology.links()]
    tables = node_tables(plan, topology.nodes())
    return (
        recovery_lookups(plan, len(plan.degrees), components),
        protocol_lookups(tables, topology, list(plan.position_of)),
    )


def walk(network: BCPNetwork, rng: random.Random, qos: FaultToleranceQoS):
    """One seeded step: establish a random pair, tear a random connection
    down, or move a random backup's ν; returns what it did."""
    nodes = sorted(network.topology.nodes())
    action = rng.choice(("establish", "establish", "teardown", "adjust"))
    connections = network.connections()
    if action == "teardown" and connections:
        network.teardown(rng.choice(connections))
    elif action == "adjust" and any(c.backups for c in connections):
        connection = rng.choice([c for c in connections if c.backups])
        backup = rng.choice(connection.backups)
        degree = backup.mux_degree
        try:
            network.engine.adjust_backup_degree(
                connection, backup, rng.choice((1, 2, 3, 6)))
        except EstablishmentError:
            pass
        if backup.mux_degree == degree:
            return "kept"
    else:
        src, dst = rng.sample(nodes, 2)
        try:
            network.establish(src, dst, ft_qos=qos)
        except EstablishmentError:
            pass
    return action


@pytest.mark.parametrize("mux_degree, num_backups", SETTINGS)
def test_every_lookup_matches_the_two_old_compiles(mux_degree, num_backups):
    rng = random.Random(mux_degree * 10 + num_backups)
    network = BCPNetwork(torus(4, 4, capacity=20.0))
    qos = FaultToleranceQoS(num_backups=num_backups, mux_degree=mux_degree)
    actions = set()
    for step in range(100):
        actions.add(walk(network, rng, qos))
        plan = network_plan(network)
        assert plan_lookups(plan, network.topology) == oracle_lookups(
            network), (mux_degree, num_backups, step)
    assert {"establish", "teardown", "adjust"} <= actions
    assert network.num_connections > 10


def test_pinned_plan_ignores_every_later_change():
    rng = random.Random(7)
    network = BCPNetwork(torus(4, 4, capacity=20.0))
    qos = FaultToleranceQoS(num_backups=2, mux_degree=3)
    for _ in range(40):
        walk(network, rng, qos)
    # Pin the plan, as the first simulation of this state does, and read
    # the old compiles before anything moves ...
    pinned = network_plan(network)
    node_tables(pinned, network.topology.nodes())
    want_recovery, want_protocol = oracle_lookups(network)
    connection = next(c for c in network.connections() if c.backups)
    backup = connection.backups[0]
    # ... then adjust one of its connections' backups, tear that
    # connection down, and keep walking.
    network.engine.adjust_backup_degree(connection, backup, 1)
    assert backup.mux_degree == 1
    network.teardown(connection)
    assert not connection.backups
    for _ in range(20):
        walk(network, rng, qos)
    assert network_plan(network) is not pinned
    # The pinned plan still answers everything a run reads as the old
    # compiles did at the time.  (Its records are the evaluator's, which
    # reads only the plan of the network as it is.)
    recovery, protocol = plan_lookups(pinned, network.topology)
    assert protocol == want_protocol
    assert recovery["primaries_on"] == want_recovery["primaries_on"]
