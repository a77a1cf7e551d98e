"""Differential test of the channel registry's link index.

A seeded walk establishes, tears down, switches over and snapshot-restores
connections on the 4x4 torus and on ``ring(6)``; after every step each
registry query — for every node and link, and for components the
topology does not have — must equal the brute-force walk of
``tests/registry_oracle.py`` over the live channels' paths.
"""

from __future__ import annotations

import random

import pytest

from repro import BCPNetwork, EstablishmentError, FaultToleranceQoS, torus
from repro.network import LinkId
from repro.network.generators import ring
from repro.serve.state import restore_network, snapshot_network
from tests import registry_oracle as oracle
from tests.switchover_oracle import switch_to_backup

STEPS = 120


def _ids(channels) -> list[int]:
    return [channel.channel_id for channel in channels]


def assert_registry_matches_oracle(network: BCPNetwork, rng) -> None:
    registry = network.registry
    topology = network.topology
    links = list(topology.links())
    nodes = list(topology.nodes())
    strangers = ["nowhere", LinkId("nowhere", nodes[0])]
    for component in [*nodes, *links, *strangers]:
        assert _ids(registry.on_component(component)) == _ids(
            oracle.on_component(registry, component)
        ), component
    for link in [*links, strangers[1]]:
        assert registry.channel_count_on_link(link) == (
            oracle.channel_count_on_link(registry, link)
        ), link
        assert _ids(registry.primaries_on_link(link)) == _ids(
            oracle.primaries_on_link(registry, link)
        ), link
    components = [*nodes, *links, *strangers]
    for size in (0, 1, 2, 3):
        failed = rng.sample(components, size)
        assert registry.affected_by(failed) == oracle.affected_by(
            registry, failed
        ), failed


def _walk(network: BCPNetwork, seed: int) -> int:
    """Run the seeded walk; returns how many steps changed the registry."""
    rng = random.Random(seed)
    nodes = sorted(network.topology.nodes())
    changed = 0
    for _ in range(STEPS):
        connections = network.connections()
        roll = rng.random()
        if roll < 0.55 or not connections:
            src, dst = rng.sample(nodes, 2)
            qos = FaultToleranceQoS(
                num_backups=rng.choice((1, 2)), mux_degree=rng.choice((1, 3))
            )
            try:
                network.establish(src, dst, ft_qos=qos)
            except EstablishmentError:
                pass
            else:
                changed += 1
        elif roll < 0.8:
            network.teardown(rng.choice(connections))
            changed += 1
        elif roll < 0.9:
            switchable = [c for c in connections if c.backups]
            if switchable:
                switch_to_backup(network, rng.choice(switchable))
                changed += 1
        else:
            restored = BCPNetwork(network.topology)
            restore_network(restored, snapshot_network(network))
            network = restored
        assert_registry_matches_oracle(network, rng)
    return changed


@pytest.mark.parametrize(
    "make_topology", [lambda: torus(4, 4, capacity=200.0),
                      lambda: ring(6, capacity=100.0)],
    ids=["torus4x4", "ring6"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_walk_matches_the_oracle(make_topology, seed):
    assert _walk(BCPNetwork(make_topology()), seed) > STEPS // 2


def test_loaded_torus_matches_the_oracle(loaded_torus4):
    assert len(loaded_torus4.registry) == 2 * 240
    assert_registry_matches_oracle(loaded_torus4, random.Random(0))
