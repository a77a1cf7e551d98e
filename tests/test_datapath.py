"""Tests for the data plane: regulator, streams, loss during recovery."""

from __future__ import annotations

import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.datapath import DataStream, TrafficRegulator
from repro.faults import FailureScenario
from repro.protocol import ProtocolConfig, ProtocolSimulation


class TestTrafficRegulator:
    def test_initial_burst_allowed(self):
        regulator = TrafficRegulator(rate=1.0, depth=3.0)
        for _ in range(3):
            assert regulator.eligible_at(0.0) == 0.0
            regulator.consume(0.0)
        assert regulator.eligible_at(0.0) == pytest.approx(1.0)

    def test_sustained_rate_enforced(self):
        regulator = TrafficRegulator(rate=2.0, depth=1.0)
        regulator.consume(0.0)
        assert regulator.eligible_at(0.0) == pytest.approx(0.5)
        regulator.consume(0.5)
        assert regulator.eligible_at(0.5) == pytest.approx(1.0)

    def test_tokens_cap_at_depth(self):
        regulator = TrafficRegulator(rate=10.0, depth=2.0)
        assert regulator.tokens_at(100.0) == 2.0

    def test_early_consume_rejected(self):
        regulator = TrafficRegulator(rate=1.0, depth=1.0)
        regulator.consume(0.0)
        with pytest.raises(ValueError, match="not eligible"):
            regulator.consume(0.1)

    def test_time_monotonicity_enforced(self):
        regulator = TrafficRegulator(rate=1.0)
        regulator.consume(5.0)
        with pytest.raises(ValueError, match="backwards"):
            regulator.consume(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficRegulator(rate=0.0)
        with pytest.raises(ValueError):
            TrafficRegulator(rate=1.0, depth=0.0)


@pytest.fixture
def stream_setup():
    network = BCPNetwork(torus(4, 4, capacity=200.0))
    connection = network.establish(
        0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
    )
    simulation = ProtocolSimulation(network, ProtocolConfig())
    return network, connection, simulation


class TestDataStreamHealthy:
    def test_all_messages_delivered_without_failures(self, stream_setup):
        _, connection, simulation = stream_setup
        stream = DataStream(simulation, connection.connection_id,
                            message_rate=1.0)
        stream.start(at=0.0, until=50.0)
        simulation.run(until=100.0)
        assert stream.report.sent > 40
        assert stream.report.lost == 0
        assert stream.report.delivered == stream.report.sent

    def test_latency_is_hops_times_hop_delay(self, stream_setup):
        _, connection, simulation = stream_setup
        stream = DataStream(simulation, connection.connection_id,
                            message_rate=1.0)
        stream.start(at=0.0, until=10.0)
        simulation.run(until=100.0)
        assert stream.report.max_latency == pytest.approx(
            DataStream.HOP_DELAY * connection.primary.path.hops
        )

    def test_rate_respected(self, stream_setup):
        _, connection, simulation = stream_setup
        stream = DataStream(simulation, connection.connection_id,
                            message_rate=4.0)
        stream.start(at=0.0, until=10.0)
        simulation.run(until=50.0)
        assert stream.report.sent == pytest.approx(41, abs=2)


class TestDataStreamUnderFailure:
    def test_loss_window_brackets_the_failure(self, stream_setup):
        _, connection, simulation = stream_setup
        stream = DataStream(simulation, connection.connection_id,
                            message_rate=2.0)
        stream.start(at=0.0, until=100.0)
        victim = connection.primary.path.links[2]
        simulation.inject_scenario(FailureScenario.of_links([victim]),
                                   at=20.0)
        simulation.run(until=200.0)
        assert stream.report.lost > 0
        first, last = stream.report.loss_window
        # Messages already in flight are the earliest casualties; anything
        # sent more than a full path-traversal before the failure had
        # already arrived and cannot be lost.
        in_flight_exposure = (
            DataStream.HOP_DELAY * connection.primary.path.hops
        )
        assert first >= 20.0 - in_flight_exposure - 1e-9
        # Delivery resumes once the source switched to the backup.
        record = simulation.metrics.recoveries[connection.connection_id]
        resumed = record.attempts[record.recovered_serial]
        assert last <= resumed + 1e-9

    def test_losses_track_disruption_duration(self, stream_setup):
        # More distant failures -> longer reporting path -> more losses.
        _, connection, simulation_unused = stream_setup
        network = simulation_unused.network

        def losses(link_index: int) -> int:
            simulation = ProtocolSimulation(network, ProtocolConfig())
            stream = DataStream(simulation, connection.connection_id,
                                message_rate=4.0)
            stream.start(at=0.0, until=100.0)
            simulation.inject_scenario(
                FailureScenario.of_links(
                    [connection.primary.path.links[link_index]]
                ),
                at=20.0,
            )
            simulation.run(until=200.0)
            return stream.report.lost

        assert losses(0) <= losses(3)

    def test_service_resumes_completely_after_recovery(self, stream_setup):
        _, connection, simulation = stream_setup
        stream = DataStream(simulation, connection.connection_id,
                            message_rate=1.0)
        stream.start(at=0.0, until=150.0)
        simulation.inject_scenario(
            FailureScenario.of_links([connection.primary.path.links[1]]),
            at=20.0,
        )
        simulation.run(until=300.0)
        # Everything sent after the switchover is delivered.
        record = simulation.metrics.recoveries[connection.connection_id]
        resumed = record.attempts[record.recovered_serial]
        late_losses = [t for t in stream.report.loss_times if t > resumed]
        assert late_losses == []
        assert stream.report.delivered > 0

    def test_unrecoverable_connection_loses_everything_after_failure(self):
        network = BCPNetwork(torus(4, 4, capacity=200.0))
        connection = network.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=0, mux_degree=0)
        )
        simulation = ProtocolSimulation(network, ProtocolConfig())
        stream = DataStream(simulation, connection.connection_id,
                            message_rate=1.0)
        stream.start(at=0.0, until=100.0)
        simulation.inject_scenario(
            FailureScenario.of_links([connection.primary.path.links[1]]),
            at=20.0,
        )
        simulation.run(until=200.0)
        assert stream.report.delivered < stream.report.sent
        # No message sent after the failure-report round trip arrives.
        assert max(stream.report.loss_times) > 20.0

    def test_dead_source_stops_sending(self, stream_setup):
        _, connection, simulation = stream_setup
        stream = DataStream(simulation, connection.connection_id,
                            message_rate=1.0)
        stream.start(at=0.0, until=100.0)
        simulation.inject_scenario(
            FailureScenario.of_nodes([connection.source]), at=10.0
        )
        simulation.run(until=200.0)
        assert stream.report.sent <= 11


class TestMessageLossExperiment:
    def test_experiment_runs_and_losses_bounded(self):
        from repro.experiments.message_loss import run_message_loss
        from repro.network.spec import TopologySpec

        result = run_message_loss(
            TopologySpec(rows=4, cols=4), message_rate=2.0,
            connections=2,
        )
        assert result.measurements
        for m in result.measurements:
            assert m.sent > 0
            assert m.delivered + m.lost == m.sent
            if m.service_disruption is not None:
                # Loss roughly = rate * (disruption + in-flight window).
                budget = result.message_rate * (
                    m.service_disruption + 2 * (m.failed_link_index + 2)
                ) + 2
                assert m.lost <= budget
        assert "Figure 8" in result.format()
