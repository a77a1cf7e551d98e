"""End-to-end tests of the BCP protocol runtime (Sections 4-5)."""

from __future__ import annotations

import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.faults import FailureScenario
from repro.network.components import LinkId
from repro.protocol import (
    ProtocolConfig,
    ProtocolSimulation,
    RCCParams,
    SwitchingScheme,
    simulate_scenario,
)
from repro.protocol.states import LocalChannelState
from tests.planted import LossySimulation, retransmission_budget


@pytest.fixture
def single_connection():
    """A 4x4 torus with one 4-hop D-connection with two backups."""
    network = BCPNetwork(torus(4, 4, capacity=200.0))
    connection = network.establish(
        0, 10, ft_qos=FaultToleranceQoS(num_backups=2, mux_degree=1)
    )
    return network, connection


def fail_primary_mid(network, connection, config=None, horizon=500.0):
    scenario = FailureScenario.of_links([connection.primary.path.links[1]])
    return simulate_scenario(network, scenario, config, horizon=horizon)


class TestBasicRecovery:
    def test_recovers_via_first_backup(self, single_connection):
        network, connection = single_connection
        metrics = fail_primary_mid(network, connection)
        record = metrics.recoveries[connection.connection_id]
        assert record.recovered_serial == 1
        assert record.completed_at is not None
        assert record.mux_failures == 0
        assert not record.unrecoverable

    def test_service_disruption_positive_and_small(self, single_connection):
        network, connection = single_connection
        metrics = fail_primary_mid(network, connection)
        disruption = metrics.recoveries[connection.connection_id].service_disruption
        assert disruption is not None
        assert 0 < disruption <= 10.0

    def test_failure_near_source_recovers_faster(self, single_connection):
        network, connection = single_connection

        def disruption(link_index):
            scenario = FailureScenario.of_links(
                [connection.primary.path.links[link_index]]
            )
            metrics = simulate_scenario(network, scenario)
            return metrics.recoveries[connection.connection_id].service_disruption

        # Scheme 3: reporting distance to the source grows with the index.
        assert disruption(0) <= disruption(3)

    def test_second_backup_when_first_is_dead(self, single_connection):
        network, connection = single_connection
        scenario = FailureScenario.of_links(
            [connection.primary.path.links[1], connection.backups[0].path.links[1]]
        )
        metrics = simulate_scenario(network, scenario)
        record = metrics.recoveries[connection.connection_id]
        assert record.recovered_serial == 2

    def test_all_channels_lost_is_unrecoverable(self, single_connection):
        network, connection = single_connection
        scenario = FailureScenario.of_links(
            [channel.path.links[1] for channel in connection.channels]
        )
        metrics = simulate_scenario(network, scenario)
        record = metrics.recoveries[connection.connection_id]
        assert record.unrecoverable
        assert not record.recovered

    def test_node_failure_detected_by_neighbours(self, single_connection):
        network, connection = single_connection
        victim = connection.primary.path.interior_nodes[0]
        metrics = simulate_scenario(network, FailureScenario.of_nodes([victim]))
        record = metrics.recoveries[connection.connection_id]
        assert record.recovered_serial is not None

    def test_endpoint_failure_marked(self, single_connection):
        network, connection = single_connection
        metrics = simulate_scenario(network, FailureScenario.of_nodes([0]))
        record = metrics.recoveries[connection.connection_id]
        assert record.endpoint_failed


class TestSwitchingSchemes:
    def _disruptions(self, network, connection):
        results = {}
        for scheme in SwitchingScheme:
            metrics = fail_primary_mid(
                network, connection, ProtocolConfig(scheme=scheme)
            )
            record = metrics.recoveries[connection.connection_id]
            results[scheme] = record
        return results

    def test_all_schemes_recover(self, single_connection):
        network, connection = single_connection
        for scheme, record in self._disruptions(network, connection).items():
            assert record.recovered_serial == 1, scheme

    def test_scheme1_slower_than_scheme2_and_3(self, single_connection):
        # Section 4.2: "Scheme 2 and Scheme 3 have an advantage over
        # Scheme 1 in terms of recovery delay, because data transfer ...
        # can be resumed immediately after sending the activation message".
        network, connection = single_connection
        records = self._disruptions(network, connection)
        s1 = records[SwitchingScheme.SCHEME_1].service_disruption
        s2 = records[SwitchingScheme.SCHEME_2].service_disruption
        s3 = records[SwitchingScheme.SCHEME_3].service_disruption
        assert s2 <= s1 and s3 <= s1

    def test_scheme3_completes_no_later_than_scheme2(self, single_connection):
        # Bi-directional activation halves the activation sweep.
        network, connection = single_connection
        records = self._disruptions(network, connection)
        assert (
            records[SwitchingScheme.SCHEME_3].completed_at
            <= records[SwitchingScheme.SCHEME_2].completed_at
        )


class TestMuxFailuresAtRuntime:
    @pytest.fixture
    def contended(self):
        """Two same-endpoint connections whose backups share one spare unit."""
        network = BCPNetwork(torus(4, 4))
        qos = FaultToleranceQoS(num_backups=1, mux_degree=15)
        first = network.establish(0, 2, ft_qos=qos)
        second = network.establish(0, 2, ft_qos=qos)
        assert first.primary.path == second.primary.path
        return network, first, second

    def test_contended_pool_yields_one_mux_failure(self, contended):
        network, first, second = contended
        scenario = FailureScenario.of_links([first.primary.path.links[0]])
        metrics = simulate_scenario(network, scenario)
        recovered = [
            metrics.recoveries[c.connection_id].recovered for c in (first, second)
        ]
        assert sorted(recovered) == [False, True]
        assert metrics.mux_failures >= 1

    def test_preemption_lets_high_priority_win(self):
        network = BCPNetwork(torus(4, 4))
        low = network.establish(
            0, 2, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=15)
        )
        high = network.establish(
            0, 2, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=14)
        )
        scenario = FailureScenario.of_links([low.primary.path.links[0]])
        # Delay-free activation: the establishment order decides who draws
        # first; with preemption the higher-priority backup evicts.
        config = ProtocolConfig(preemption=True)
        metrics = simulate_scenario(network, scenario, config)
        assert metrics.recoveries[high.connection_id].recovered
        assert metrics.preemptions >= 1

    def test_activation_delay_orders_priorities_without_preemption(self):
        network = BCPNetwork(torus(4, 4))
        low = network.establish(
            0, 2, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=15)
        )
        high = network.establish(
            0, 2, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=14)
        )
        scenario = FailureScenario.of_links([low.primary.path.links[0]])
        config = ProtocolConfig(activation_delay_per_degree=0.5)
        metrics = simulate_scenario(network, scenario, config)
        assert metrics.recoveries[high.connection_id].recovered
        # The delay variant taxes the low-priority connection always.
        high_rec = metrics.recoveries[high.connection_id]
        assert high_rec.service_disruption >= 14 * 0.5


class TestRejoin:
    def test_repaired_component_rejoins_channel_as_backup(self, single_connection):
        network, connection = single_connection
        victim = connection.primary.path.links[1]
        simulation = ProtocolSimulation(
            network, ProtocolConfig(rejoin_timeout=200.0)
        )
        simulation.inject_scenario(FailureScenario.of_links([victim]), at=1.0)
        simulation.repair(victim, at=5.0)
        simulation.run(until=400.0)
        metrics = simulation.metrics
        assert metrics.recoveries[connection.connection_id].recovered
        assert metrics.rejoins > 0
        # The old primary is a BACKUP again at the source.
        source_daemon = simulation.daemons[connection.source]
        record = source_daemon.records[connection.primary.channel_id]
        assert record.state is LocalChannelState.BACKUP

    def test_permanent_failure_tears_down_via_rejoin_timer(self, single_connection):
        network, connection = single_connection
        simulation = ProtocolSimulation(network, ProtocolConfig(rejoin_timeout=30.0))
        scenario = FailureScenario.of_links([connection.primary.path.links[1]])
        simulation.inject_scenario(scenario, at=1.0)
        simulation.run(until=400.0)
        # The failed primary's record at the source expired U -> N.
        source_daemon = simulation.daemons[connection.source]
        record = source_daemon.records[connection.primary.channel_id]
        assert record.state is LocalChannelState.NON_EXISTENT

    def test_rejoined_channel_usable_for_next_failure(self, single_connection):
        network, connection = single_connection
        victim = connection.primary.path.links[1]
        simulation = ProtocolSimulation(
            network, ProtocolConfig(rejoin_timeout=200.0)
        )
        simulation.inject_scenario(FailureScenario.of_links([victim]), at=1.0)
        simulation.repair(victim, at=5.0)
        simulation.run(until=300.0)
        source_view = simulation.daemons[connection.source].views[
            connection.connection_id
        ]
        # The repaired primary is now offered as a backup in the view.
        assert any(
            info.channel_id == connection.primary.channel_id
            for info in source_view.backups
        )


class TestRCCIntegration:
    def test_recovery_survives_lossy_control_plane(self, single_connection,
                                                   monkeypatch):
        network, connection = single_connection
        retransmission_budget(monkeypatch, 12)
        simulation = LossySimulation(network, seed=11, loss=0.3)
        simulation.inject_scenario(
            FailureScenario.of_links([connection.primary.path.links[1]]), 1.0
        )
        simulation.run(until=500.0)
        assert simulation.metrics.recoveries[connection.connection_id].recovered

    def test_disruption_scales_with_dmax(self, single_connection):
        network, connection = single_connection
        slow = ProtocolConfig(rcc=RCCParams(max_delay=5.0))
        fast = ProtocolConfig(rcc=RCCParams(max_delay=0.5))
        d_slow = fail_primary_mid(network, connection, slow).recoveries[
            connection.connection_id
        ].service_disruption
        d_fast = fail_primary_mid(network, connection, fast).recoveries[
            connection.connection_id
        ].service_disruption
        assert d_fast < d_slow


class TestInjectionValidation:
    """``fail`` / ``repair`` / ``inject_scenario`` reject a component the
    topology lacks when it is scheduled — not as a bare ``KeyError`` from
    inside ``run()``, and never by silently "failing" a phantom link."""

    @pytest.mark.parametrize("component, named", [
        (999, "node 999"),
        (LinkId(0, 999), "link"),
        (LinkId(0, 5), "link"),  # both ends exist, the link does not
    ])
    @pytest.mark.parametrize("action", ["fail", "repair"])
    def test_unknown_component_is_a_value_error(
        self, single_connection, action, component, named
    ):
        network, _ = single_connection
        assert component not in network.topology
        simulation = ProtocolSimulation(network, seed=0)
        with pytest.raises(ValueError, match=named) as raised:
            getattr(simulation, action)(component, at=1.0)
        assert str(component) in str(raised.value)
        assert simulation.engine.pending == 0
        simulation.run(until=50.0)
        assert simulation.failed_components == set()
        assert simulation.engine.events_processed == 0

    def test_scenario_with_one_bad_component_schedules_nothing(
        self, single_connection
    ):
        network, connection = single_connection
        good = connection.primary.path.links[1]
        simulation = ProtocolSimulation(network, seed=0)
        for scenario in (
            FailureScenario(failed_nodes=frozenset({3, 999})),
            FailureScenario(failed_links=frozenset({good, LinkId(0, 5)})),
        ):
            with pytest.raises(ValueError, match="not a component"):
                simulation.inject_scenario(scenario, at=1.0)
            assert simulation.engine.pending == 0
        simulation.run(until=50.0)
        assert simulation.failed_components == set()
        assert not simulation.metrics.recoveries
        # The same simulation still takes a valid injection afterwards.
        simulation.inject_scenario(FailureScenario.of_links([good]), at=60.0)
        simulation.run(until=500.0)
        assert simulation.metrics.recoveries[connection.connection_id].recovered
