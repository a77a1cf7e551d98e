"""Tests for the Section 4.4 slow path: from-scratch re-establishment
when every channel of a D-connection is lost."""

from __future__ import annotations

from repro import BCPNetwork, FaultToleranceQoS
from repro.faults import FailureScenario
from repro.network.generators import ring
from repro.protocol import ProtocolConfig, ProtocolSimulation, simulate_scenario
from repro.protocol.signaling import establishment_latency
from repro.sim import TraceLog

REESTABLISH = ProtocolConfig(reestablish_unrecoverable=True)


def total_loss_scenario(connection):
    """Fail one interior component of every channel of the connection."""
    return FailureScenario.of_links(
        [channel.path.links[1] for channel in connection.channels]
    )


class TestSlowPath:
    def test_disabled_by_default(self, torus4):
        connection = torus4.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        metrics = simulate_scenario(
            torus4, total_loss_scenario(connection), ProtocolConfig()
        )
        record = metrics.recoveries[connection.connection_id]
        assert record.unrecoverable
        assert record.reestablished_at is None

    def test_reestablishes_when_enabled(self, torus4):
        connection = torus4.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        metrics = simulate_scenario(
            torus4, total_loss_scenario(connection), REESTABLISH,
            horizon=1000.0,
        )
        record = metrics.recoveries[connection.connection_id]
        assert record.unrecoverable  # fast recovery did fail...
        assert record.reestablished_at is not None  # ...slow path succeeded
        assert metrics.reestablished == 1

    def test_slow_path_is_much_slower_than_activation(self, torus4):
        connection = torus4.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        # Fast path: fail only the primary.
        fast = simulate_scenario(
            torus4,
            FailureScenario.of_links([connection.primary.path.links[1]]),
            REESTABLISH,
        ).recoveries[connection.connection_id]
        # Slow path: fail everything.
        slow = simulate_scenario(
            torus4, total_loss_scenario(connection), REESTABLISH,
            horizon=1000.0,
        ).recoveries[connection.connection_id]
        assert fast.service_disruption is not None
        assert slow.slow_recovery_disruption is not None
        assert slow.slow_recovery_disruption > 5 * fast.service_disruption

    def test_latency_includes_signalling_round_trip(self, torus4):
        connection = torus4.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        metrics = simulate_scenario(
            torus4, total_loss_scenario(connection), REESTABLISH,
            horizon=1000.0,
        )
        record = metrics.recoveries[connection.connection_id]
        lower_bound = establishment_latency(record.reestablished_hops)
        assert record.slow_recovery_disruption >= lower_bound

    def test_no_route_leaves_unrecoverable(self):
        # In a ring, killing both directions of the connection's two
        # disjoint routes partitions... use a tight QoS instead: fail both
        # channels; the only remaining route violates shortest+2.
        network = BCPNetwork(ring(8, capacity=100.0))
        connection = network.establish(
            0, 4, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        scenario = total_loss_scenario(connection)
        metrics = simulate_scenario(network, scenario, REESTABLISH,
                                    horizon=1000.0)
        record = metrics.recoveries[connection.connection_id]
        assert record.unrecoverable
        assert record.reestablished_at is None

    def test_replacement_respects_residual_network(self, torus4):
        connection = torus4.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        simulation = ProtocolSimulation(torus4, REESTABLISH, trace=TraceLog())
        simulation.inject_scenario(total_loss_scenario(connection), at=1.0)
        simulation.run(until=1000.0)
        events = simulation.trace.select("reestablish")
        assert len(events) == 1
        record = simulation.metrics.recoveries[connection.connection_id]
        # The replacement cannot be shorter than the original shortest.
        assert record.reestablished_hops >= connection.primary.path.hops
