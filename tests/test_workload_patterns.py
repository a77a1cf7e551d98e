"""Tests for teardown messaging and literal-scheme relaxation."""

from __future__ import annotations

import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.core.establishment import RELAX_STEP
from repro.protocol import ProtocolConfig, ProtocolSimulation
from repro.protocol.states import LocalChannelState
from repro.sim import TraceLog


class TestRuntimeClosure:
    def test_closure_sweeps_the_whole_path(self, torus4):
        connection = torus4.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        simulation = ProtocolSimulation(torus4, ProtocolConfig(),
                                        trace=TraceLog())
        simulation.close_connection(connection.connection_id, at=5.0)
        simulation.run(until=100.0)
        for channel in connection.channels:
            for node in channel.path.nodes:
                record = simulation.daemons[node].records[channel.channel_id]
                assert record.state is LocalChannelState.NON_EXISTENT, (
                    channel.channel_id, node,
                )
        assert simulation.trace.select("closure")

    def test_closure_from_non_source_rejected(self, torus4):
        connection = torus4.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=0, mux_degree=0)
        )
        simulation = ProtocolSimulation(torus4, ProtocolConfig())
        destination = connection.destination
        with pytest.raises(ValueError, match="not the source"):
            simulation.daemons[destination].initiate_closure(
                connection.primary.channel_id
            )

    def test_closure_idempotent(self, torus4):
        connection = torus4.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=0, mux_degree=0)
        )
        simulation = ProtocolSimulation(torus4, ProtocolConfig())
        simulation.close_connection(connection.connection_id, at=5.0)
        simulation.close_connection(connection.connection_id, at=50.0)
        simulation.run(until=200.0)  # second closure is a silent no-op


class TestLiteralRelaxation:
    def test_relaxation_rescues_tight_capacity(self):
        """With capacity for only one unshared backup per link, a second
        backup can only fit after relaxing the first one's degree."""
        network = BCPNetwork(torus(4, 4, capacity=3.0))
        # Demand enough reliability that one backup at degree 0 isn't the
        # stopping point... drive the internals directly instead:
        connection = network.establish(
            0, 2, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=0)
        )
        other = network.establish(
            0, 2, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=0)
        )
        # Shared backup links now hold 2 spare + some primaries elsewhere;
        # relaxing both to full sharing must reduce the total.
        before = network.ledger.total_spare()
        for relaxed in (connection, other):
            assert network.engine._relax_existing_backups(relaxed)
            while network.engine._relax_existing_backups(relaxed):
                pass  # on to the cap, RELAX_STEP at a time
        assert network.ledger.total_spare() < before

    def test_relaxation_reports_no_change_at_cap(self, torus4):
        connection = torus4.establish(
            0, 2, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=0)
        )
        assert torus4.engine._relax_existing_backups(connection)
        assert connection.backups[0].mux_degree == RELAX_STEP
        while torus4.engine._relax_existing_backups(connection):
            pass
        # At the cap: nothing is left to loosen.
        assert not torus4.engine._relax_existing_backups(connection)
