"""Edge-case tests rounding out module coverage."""

from __future__ import annotations

import pytest

from repro import BCPNetwork, FaultToleranceQoS, TrafficSpec, torus
from repro.core.establishment import spare_aware_backup_cost
from repro.datapath import DataStream
from repro.faults import FailureScenario
from repro.network import LinkId
from repro.protocol import ProtocolConfig, ProtocolSimulation
from repro.sim.trace import Row


class TestSpareAwareCostFunction:
    def test_covered_link_is_cheaper(self):
        network = BCPNetwork(torus(4, 4, capacity=200.0))
        qos = FaultToleranceQoS(num_backups=1, mux_degree=15)
        first = network.establish(0, 2, ft_qos=qos)
        # A second same-endpoints connection: its backup multiplexes for
        # free on first's backup links, so those links must cost less than
        # untouched ones.
        pending = network.engine._establish_primary_only(
            0, 2, TrafficSpec(), first.delay_qos, qos
        )
        try:
            cost = spare_aware_backup_cost(network.engine, pending, 15)
            covered = first.backups[0].path.links[0]
            fresh = LinkId(12, 13)
            assert cost(covered) < cost(fresh)
        finally:
            network.engine.teardown(pending)

    def test_base_keeps_hop_count_relevant(self):
        from repro import DelayQoS

        network = BCPNetwork(torus(4, 4, capacity=200.0))
        qos = FaultToleranceQoS(num_backups=1, mux_degree=15)
        pending = network.engine._establish_primary_only(
            0, 2, TrafficSpec(), DelayQoS(), qos
        )
        try:
            cost = spare_aware_backup_cost(network.engine, pending, 15)
            # An uncovered link costs base + bandwidth growth = 2*bw + bw.
            assert cost(LinkId(12, 13)) == pytest.approx(3.0)
        finally:
            network.engine.teardown(pending)


class TestFailureScenarioMixed:
    def test_mixed_nodes_and_links_expand(self):
        topology = torus(3, 3)
        scenario = FailureScenario(
            failed_nodes=frozenset({4}),
            failed_links=frozenset({LinkId(0, 1)}),
            name="mixed",
        )
        components = scenario.components(topology)
        assert 4 in components
        assert LinkId(0, 1) in components
        assert LinkId(4, 5) in components  # incident to the failed node
        assert scenario.size == 2

    def test_str_uses_name(self):
        assert str(FailureScenario(name="boom")) == "boom"


class TestDataStreamBursts:
    def test_stop_halts_emission(self):
        network = BCPNetwork(torus(4, 4, capacity=200.0))
        connection = network.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=0, mux_degree=0)
        )
        simulation = ProtocolSimulation(network, ProtocolConfig())
        stream = DataStream(simulation, connection.connection_id,
                            message_rate=1.0)
        stream.start(at=0.0)
        simulation.engine.schedule(10.0, stream.stop)
        simulation.run(until=100.0)
        assert stream.report.sent <= 12


class TestTraceEventStr:
    """A trace event is a :class:`~repro.sim.trace.Row` of the one log."""

    def test_renders_fields(self):
        point = Row(3, None, "detect", 7, 1.5, 1.5, {"channel": 4})
        assert str(point) == "[     1.500] detect @7 channel=4"
        span = Row(4, None, "episode", LinkId(0, 1), 1.5, None, {})
        assert str(span) == "[     1.500] episode @0->1 t_end=None"
