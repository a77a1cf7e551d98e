"""Stateful property test: random establish/teardown/switchover sequences
must preserve the network-wide resource invariants.

Invariants checked after every step:

* no link over capacity (primary + spare <= capacity),
* every link's spare reservation >= the multiplexing engine's requirement
  (as recomputed from scratch, the O(n²) oracle),
* registry contents consistent with the set of live connections,
* with everything torn down, all reservations return to zero.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import BCPNetwork, EstablishmentError, FaultToleranceQoS, torus
from tests.switchover_oracle import switch_to_backup

NODES = 9  # 3x3 torus


class BCPNetworkMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.network = BCPNetwork(torus(3, 3, capacity=20.0))
        self.live: list = []

    # ------------------------------------------------------------------
    @rule(
        src=st.integers(min_value=0, max_value=NODES - 1),
        dst=st.integers(min_value=0, max_value=NODES - 1),
        backups=st.integers(min_value=0, max_value=2),
        degree=st.integers(min_value=0, max_value=8),
    )
    def establish(self, src, dst, backups, degree):
        if src == dst:
            return
        try:
            connection = self.network.establish(
                src, dst,
                ft_qos=FaultToleranceQoS(num_backups=backups,
                                         mux_degree=degree),
            )
        except EstablishmentError:
            return  # rejection is legal; invariants still checked below
        self.live.append(connection)

    @precondition(lambda self: self.live)
    @rule(index=st.integers(min_value=0, max_value=10_000))
    def teardown_connection(self, index):
        connection = self.live.pop(index % len(self.live))
        self.network.teardown(connection)

    @precondition(lambda self: any(c.backups for c in self.live))
    @rule(index=st.integers(min_value=0, max_value=10_000))
    def switchover(self, index):
        candidates = [c for c in self.live if c.backups]
        connection = candidates[index % len(candidates)]
        switch_to_backup(self.network, connection)

    # ------------------------------------------------------------------
    @invariant()
    def links_within_capacity(self):
        for link in self.network.topology.links():
            entry = self.network.ledger.ledger(link)
            assert entry.primary >= -1e-9
            assert entry.spare >= -1e-9
            assert entry.reserved <= entry.capacity + 1e-6

    @invariant()
    def spare_covers_recomputed_requirement(self):
        for link, state in self.network.mux._links.items():
            required = state.spare_required_recomputed()
            reserved = self.network.ledger.spare_reserved(link)
            assert reserved + 1e-6 >= required, (link, reserved, required)

    @invariant()
    def registry_matches_connections(self):
        expected = set()
        for connection in self.live:
            for channel in connection.channels:
                expected.add(channel.channel_id)
        actual = {channel.channel_id
                  for channel in self.network.registry.channels()}
        assert actual == expected

    def teardown(self):
        # Hypothesis lifecycle hook: end every run with a full teardown and
        # verify the network returns to pristine state.
        for connection in list(self.live):
            self.network.teardown(connection)
        assert self.network.network_load() == pytest.approx(0.0)
        assert self.network.spare_fraction() == pytest.approx(0.0)


BCPNetworkMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestBCPNetworkStateful = BCPNetworkMachine.TestCase


def test_full_teardown_after_random_walk():
    """Complement to the state machine: an explicit walk ending in a full
    teardown leaves the network pristine."""
    import random

    rng = random.Random(3)
    network = BCPNetwork(torus(3, 3, capacity=20.0))
    live = []
    for _ in range(60):
        action = rng.random()
        if action < 0.6 or not live:
            src, dst = rng.sample(range(NODES), 2)
            try:
                live.append(network.establish(
                    src, dst,
                    ft_qos=FaultToleranceQoS(
                        num_backups=rng.randint(0, 2),
                        mux_degree=rng.randint(0, 8),
                    ),
                ))
            except EstablishmentError:
                pass
        elif action < 0.85:
            network.teardown(live.pop(rng.randrange(len(live))))
        else:
            candidates = [c for c in live if c.backups]
            if candidates:
                switch_to_backup(network, rng.choice(candidates))
    for connection in live:
        network.teardown(connection)
    assert network.network_load() == pytest.approx(0.0)
    assert network.spare_fraction() == pytest.approx(0.0)
    assert len(network.registry) == 0
