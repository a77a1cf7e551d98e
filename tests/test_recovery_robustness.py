"""Robustness regressions: RCC give-ups on a dead link, the transport
counters on a flapping link, timer lifecycle on node death, and recovery
under a lossy control channel."""

from __future__ import annotations

import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.obs import MetricsRegistry
from repro.protocol import ProtocolSimulation
from repro.protocol.states import LocalChannelState
from tests.planted import LossySimulation


@pytest.fixture
def single_connection():
    network = BCPNetwork(torus(4, 4, capacity=200.0))
    connection = network.establish(
        0, 10, ft_qos=FaultToleranceQoS(num_backups=2, mux_degree=1)
    )
    return network, connection


class TestRCCGiveUpDetection:
    def test_give_ups_confined_to_the_dead_link(self, single_connection):
        """With only a hard link failure, frames die (and give up) on that
        link alone: no frame on a healthy link runs out of resends."""
        network, connection = single_connection
        simulation = ProtocolSimulation(network, seed=0)
        failed_link = connection.primary.path.links[1]
        simulation.fail(failed_link, at=1.0)
        simulation.run(until=600.0)
        for link, rcc in simulation._rcc.items():
            if rcc.stats.gave_up:
                assert link == failed_link
        record = simulation.metrics.recoveries[connection.connection_id]
        assert record.recovered_serial == 1


class TestTransportCounters:
    def test_registry_counts_every_lost_frame(self, single_connection):
        """A frame can be lost at launch (the link is already down) or in
        flight (it dies before the frame arrives); the registry's
        counters and the links' own stats count both the same way."""
        network, connection = single_connection
        registry = MetricsRegistry()
        simulation = ProtocolSimulation(network, seed=0, metrics=registry)
        link = connection.primary.path.links[1]
        simulation.fail(link, at=1.0)
        # The repair's hint reaches the source at 4.0, and its
        # rejoin-request crosses the link in 5.0-6.0, when it dies again.
        simulation.repair(link, at=3.0)
        simulation.fail(link, at=5.5)
        simulation.fail(2, at=5.6)
        simulation.run(until=500.0)
        totals = simulation.rcc_totals()
        counters = registry.snapshot()["counters"]
        assert totals["frames_lost"] == 9  # 8 lost at launch, 1 in flight
        for key in ("frames_sent", "frames_lost", "retransmissions",
                    "gave_up"):
            assert counters.get(f"rcc.{key}", 0) == totals[key], key


class TestTimerLifecycleOnCrash:
    def test_crash_cancels_pending_rejoin_timers(self, single_connection):
        """A node that dies with rejoin timers pending must disarm them:
        nothing of the dead node's soft state may fire later, and the
        event heap must still drain."""
        network, connection = single_connection
        simulation = ProtocolSimulation(network, seed=0)
        primary_path = connection.primary.path
        crashed = primary_path.nodes[1]
        simulation.fail(primary_path.links[1], at=1.0)
        simulation.fail(crashed, at=10.0)
        simulation.repair(crashed, at=200.0)

        # At t=15 the crash has happened; every rejoin timer the node
        # armed at t=1 must be disarmed.
        simulation.run(until=15.0)
        daemon = simulation.daemons[crashed]
        assert daemon._rejoin_timers
        assert all(
            not handle.active for handle in daemon._rejoin_timers.values()
        )

        # Well past the original expiry (1 + rejoin_timeout), the dead
        # node's channel record is frozen in U: the timer did not fire.
        simulation.run(until=150.0)
        record = daemon.records[connection.primary.channel_id]
        assert record.state is LocalChannelState.UNHEALTHY

        # After repair the re-armed timer completes the teardown, and the
        # run quiesces (no orphaned events keep the heap alive).
        simulation.run(until=500.0)
        assert record.state is not LocalChannelState.UNHEALTHY
        assert simulation.engine.pending == 0

    def test_connection_still_recovers_around_the_crash(
        self, single_connection
    ):
        network, connection = single_connection
        simulation = ProtocolSimulation(network, seed=0)
        primary_path = connection.primary.path
        simulation.fail(primary_path.links[1], at=1.0)
        simulation.fail(primary_path.nodes[1], at=10.0)
        simulation.run(until=500.0)
        record = simulation.metrics.recoveries[connection.connection_id]
        assert record.recovered


class TestLossyRecovery:
    def test_recovery_completes_under_frame_loss(self, single_connection):
        """End-to-end recovery with a 20% lossy control channel: the
        ack/retransmit machinery must absorb the losses (retransmissions
        observed) and still deliver a finite service disruption."""
        network, connection = single_connection
        simulation = LossySimulation(network, seed=1, loss=0.2)
        simulation.fail(connection.primary.path.links[1], at=1.0)
        simulation.run(until=600.0)

        totals = simulation.rcc_totals()
        assert totals["retransmissions"] > 0
        record = simulation.metrics.recoveries[connection.connection_id]
        assert record.recovered
        assert record.service_disruption is not None
        assert record.service_disruption > 0.0

    def test_lossless_retransmissions_confined_to_dead_link(
        self, single_connection
    ):
        network, connection = single_connection
        simulation = ProtocolSimulation(network, seed=1)
        failed_link = connection.primary.path.links[1]
        simulation.fail(failed_link, at=1.0)
        simulation.run(until=600.0)
        for link, rcc in simulation._rcc.items():
            if rcc.stats.retransmissions:
                assert link == failed_link
