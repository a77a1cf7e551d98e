"""Tests for grouped recovery evaluation and staged multi-failure runs."""

from __future__ import annotations

import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.faults import all_single_link_failures
from repro.protocol import ProtocolConfig, ProtocolSimulation
from repro.recovery import (
    RecoveryEvaluator,
    by_mux_degree,
    by_source,
    evaluate_grouped,
)


@pytest.fixture(scope="module")
def mixed_network():
    network = BCPNetwork(torus(4, 4, capacity=200.0))
    degrees = (1, 6)
    backups = (1, 2)
    index = 0
    for src in range(16):
        for dst in range(16):
            if src == dst:
                continue
            network.establish(
                src, dst,
                ft_qos=FaultToleranceQoS(
                    num_backups=backups[index % 2],
                    mux_degree=degrees[index % 2],
                ),
            )
            index += 1
    return network


class TestEvaluateGrouped:
    def test_groups_partition_totals(self, mixed_network):
        evaluator = RecoveryEvaluator(mixed_network)
        scenarios = all_single_link_failures(mixed_network.topology)
        grouped = evaluate_grouped(
            mixed_network, evaluator, scenarios, key=by_mux_degree
        )
        total = evaluator.evaluate_many(scenarios)
        assert set(grouped) == {1, 6}
        assert (
            sum(stats.failed_primaries for stats in grouped.values())
            == total.failed_primaries
        )
        assert (
            sum(stats.fast_recovered for stats in grouped.values())
            == total.fast_recovered
        )

    def test_low_degree_class_outperforms(self, mixed_network):
        evaluator = RecoveryEvaluator(mixed_network)
        scenarios = all_single_link_failures(mixed_network.topology)
        grouped = evaluate_grouped(
            mixed_network, evaluator, scenarios, key=by_mux_degree
        )
        assert grouped[1].r_fast == 1.0
        assert grouped[6].r_fast <= grouped[1].r_fast

    def test_group_by_backup_count(self, mixed_network):
        evaluator = RecoveryEvaluator(mixed_network)
        scenarios = all_single_link_failures(mixed_network.topology)[:10]
        grouped = evaluate_grouped(
            mixed_network, evaluator, scenarios,
            key=lambda connection: connection.num_backups,
        )
        assert set(grouped) == {1, 2}

    def test_group_by_source(self, mixed_network):
        evaluator = RecoveryEvaluator(mixed_network)
        scenarios = all_single_link_failures(mixed_network.topology)[:5]
        grouped = evaluate_grouped(
            mixed_network, evaluator, scenarios, key=by_source
        )
        assert all(isinstance(key, int) for key in grouped)

    def test_custom_key(self, mixed_network):
        evaluator = RecoveryEvaluator(mixed_network)
        scenarios = all_single_link_failures(mixed_network.topology)[:5]
        grouped = evaluate_grouped(
            mixed_network, evaluator, scenarios,
            key=lambda conn: "all",
        )
        assert set(grouped) == {"all"}


class TestStagedFailures:
    """Time-staggered failures through the protocol runtime: recover,
    then fail the new primary, and recover again."""

    def test_two_staged_failures_consume_both_backups(self):
        network = BCPNetwork(torus(4, 4, capacity=200.0))
        connection = network.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=2, mux_degree=1)
        )
        simulation = ProtocolSimulation(network, ProtocolConfig())
        # First failure kills the primary; serial 1 takes over.
        simulation.fail(connection.primary.path.links[1], at=10.0)
        # Second failure kills the *first backup* (now the active primary).
        simulation.fail(connection.backups[0].path.links[1], at=100.0)
        simulation.run(until=600.0)
        record = simulation.metrics.recoveries[connection.connection_id]
        # Both serials were activated over the run; service survived.
        assert set(record.attempts) == {1, 2}
        assert not record.unrecoverable

    def test_three_staged_failures_exhaust_connection(self):
        network = BCPNetwork(torus(4, 4, capacity=200.0))
        connection = network.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=2, mux_degree=1)
        )
        simulation = ProtocolSimulation(network, ProtocolConfig())
        simulation.fail(connection.primary.path.links[1], at=10.0)
        simulation.fail(connection.backups[0].path.links[1], at=100.0)
        simulation.fail(connection.backups[1].path.links[1], at=200.0)
        simulation.run(until=800.0)
        record = simulation.metrics.recoveries[connection.connection_id]
        assert record.unrecoverable

    def test_staged_failures_with_repair_in_between(self):
        network = BCPNetwork(torus(4, 4, capacity=200.0))
        connection = network.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        config = ProtocolConfig(rejoin_timeout=150.0)
        simulation = ProtocolSimulation(network, config)
        first = connection.primary.path.links[1]
        simulation.fail(first, at=10.0)
        simulation.repair(first, at=40.0)  # old primary rejoins as backup
        # Then the active channel (old backup) dies too.
        simulation.fail(connection.backups[0].path.links[1], at=300.0)
        simulation.run(until=900.0)
        record = simulation.metrics.recoveries[connection.connection_id]
        # The rejoined original primary (serial 0) saved the day.
        assert 0 in record.attempts
        assert not record.unrecoverable
