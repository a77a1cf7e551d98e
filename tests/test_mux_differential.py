"""The mask-keyed multiplexing engine against the frozenset oracle.

A seeded walk of admissions (each previewed first, sometimes after an
unrelated preview), bulk teardowns, Ψ queries and candidate Ψ queries
drives one link of a :class:`MultiplexingEngine` and the frozenset-keyed
:class:`~tests.mux_oracle.FrozensetLinkMuxState` in lockstep.  Every float is
compared by ``hex()``: the entry order, each entry's requirement and the
pool size must be the same IEEE values, not merely close.  A full 8x8
build is held to the snapshot bytes the frozenset engine produced.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro import FaultToleranceQoS
from repro.channels import Channel, ChannelRole, TrafficSpec
from repro.core.multiplexing import MultiplexingEngine
from repro.core.overlap import OverlapPolicy
from repro.experiments.setup import load_network
from repro.network.generators import ring, torus
from repro.network.spec import TopologySpec
from repro.routing.paths import Path
from repro.serve.state import snapshot_network
from tests.mux_oracle import FrozensetLinkMuxState

TOPOLOGIES = {"torus4x4": lambda: torus(4, 4), "ring8": lambda: ring(8)}
POLICIES = {
    "integer": OverlapPolicy(),
    "integer-transit": OverlapPolicy(count_endpoints=False),
    "exact": OverlapPolicy(exact=True),
    "exact-transit": OverlapPolicy(exact=True, count_endpoints=False),
}
DEGREES = (0, 1, 3, 6)
#: Not all dyadic, so a requirement's value depends on its history.
BANDWIDTHS = (0.5, 1.0, 1.25, 2.0, 3.3)


def _random_path(topology, rng: random.Random) -> Path:
    """A random simple walk of 1-6 hops along the topology's links."""
    nodes = list(topology.nodes())
    while True:
        walk = [rng.choice(nodes)]
        for _ in range(rng.randint(1, 6)):
            options = [node for node in topology.successors(walk[-1])
                       if node not in walk]
            if not options:
                break
            walk.append(rng.choice(options))
        if len(walk) >= 2:
            return Path(walk)


def _oracle_set(policy: OverlapPolicy, path: Path) -> frozenset:
    return path.components if policy.count_endpoints else path.transit_components


def _state(link_state) -> tuple:
    """Entry order, per-entry requirement and pool size, as exact hex."""
    return (
        [(entry.channel_id, entry.requirement.hex())
         for entry in link_state.entries()],
        link_state.spare_required().hex(),
    )


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("family", sorted(TOPOLOGIES))
def test_mask_engine_matches_frozenset_oracle(family, policy_name):
    topology = TOPOLOGIES[family]()
    policy = POLICIES[policy_name]
    rng = random.Random(f"{family}/{policy_name}")
    link = next(iter(topology.links()))
    engine = MultiplexingEngine(policy)
    oracle = FrozensetLinkMuxState(link, policy)
    backups: dict[int, Channel] = {}
    removals = 0
    for channel_id in range(300):
        if backups and rng.random() < 0.25:
            leaving = rng.sample(sorted(backups),
                                 rng.randint(1, min(2, len(backups))))
            grown = engine.remove_backups([backups.pop(cid) for cid in leaving])
            assert grown[link].hex() == oracle.remove_many(leaving).hex()
            removals += len(leaving)
        else:
            primary_path = _random_path(topology, rng)
            bandwidth = rng.choice(BANDWIDTHS)
            degree = rng.choice(DEGREES)
            mask = engine.primary_mask(primary_path)
            components = _oracle_set(policy, primary_path)
            assert mask.bit_count() == len(components)
            state = engine.link_state(link)
            if rng.random() < 0.3:  # a stale scan the add must not reuse
                other = _random_path(topology, rng)
                assert state.preview_add(
                    bandwidth, degree, engine.primary_mask(other)
                ).hex() == oracle.preview_add(
                    bandwidth, degree, _oracle_set(policy, other)
                ).hex()
            predicted = state.preview_add(bandwidth, degree, mask)
            assert predicted.hex() == oracle.preview_add(
                bandwidth, degree, components).hex()
            backup = Channel(
                channel_id=channel_id, connection_id=channel_id,
                role=ChannelRole.BACKUP, serial=1, path=Path(link.endpoints()),
                traffic=TrafficSpec(bandwidth=bandwidth), mux_degree=degree,
            )
            primary = Channel(
                channel_id=10_000 + channel_id, connection_id=channel_id,
                role=ChannelRole.PRIMARY, serial=0, path=primary_path,
                traffic=TrafficSpec(bandwidth=bandwidth),
            )
            grown = engine.add_backup(backup, primary)[link]
            assert grown.hex() == oracle.add(
                channel_id, bandwidth, degree, components).hex()
            backups[channel_id] = backup
        state = engine.link_state(link)
        assert _state(state) == _state(oracle)
        if channel_id % 10 == 0:  # every Ψ is a pass over the link
            assert [engine.psi_sizes(backups[entry.channel_id])[link]
                    for entry in state.entries()] == [
                oracle.psi_size(entry.channel_id)
                for entry in oracle.entries()]
        candidate = _random_path(topology, rng)
        assert state.psi_sizes_for_candidate(
            engine.primary_mask(candidate), list(DEGREES)
        ) == oracle.psi_sizes_for_candidate(
            _oracle_set(policy, candidate), list(DEGREES))
    assert removals > 50 and len(backups) > 20
    assert state.spare_required() == pytest.approx(
        state.spare_required_recomputed())


#: ``sha256`` of ``json.dumps(snapshot_network(network), sort_keys=True)``
#: and ``spare_fraction().hex()`` of the 8x8 torus, all 4 032 pairs, one
#: backup, as the frozenset-keyed engine built it.
SNAPSHOT_DIGESTS = {
    3: ("529b3f3f6a2a72e1845aef633e153a04d1795f8defddfb45d8c1f6b7252614e7",
        "0x1.8e47ae147ae14p-3"),
    6: ("1c7c108cdf04c8bb544d56aa7890a0aa9c47334e22561aec3bf4206321323116",
        "0x1.448f5c28f5c29p-4"),
}


@pytest.mark.parametrize("mux_degree", sorted(SNAPSHOT_DIGESTS))
def test_paper_network_snapshot_bytes_unchanged(mux_degree):
    network, report = load_network(
        TopologySpec(family="torus", rows=8, cols=8),
        FaultToleranceQoS(num_backups=1, mux_degree=mux_degree),
    )
    assert report.established == 4032
    blob = json.dumps(snapshot_network(network), sort_keys=True).encode()
    assert (hashlib.sha256(blob).hexdigest(),
            network.spare_fraction().hex()) == SNAPSHOT_DIGESTS[mux_degree]
