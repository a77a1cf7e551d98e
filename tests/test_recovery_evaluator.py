"""Tests for repro.recovery: scenario evaluation and R_fast metrics."""

from __future__ import annotations

import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.faults import (
    FailureScenario,
    all_single_link_failures,
    all_single_node_failures,
)
from repro.network import LinkId
from repro.recovery import (
    ActivationOrder,
    ConnectionOutcome,
    RecoveryEvaluator,
    RecoveryStats,
    ScenarioResult,
)


class TestScenarioMechanics:
    def test_hand_built_result_counts_its_outcomes(self):
        # No evaluator tally to read: every number walks ``outcomes``.
        result = ScenarioResult(FailureScenario(), outcomes={
            1: ConnectionOutcome.FAST_RECOVERED,
            2: ConnectionOutcome.MUX_FAILURE,
            3: ConnectionOutcome.CHANNELS_LOST,
            4: ConnectionOutcome.EXCLUDED,
            5: ConnectionOutcome.FAST_RECOVERED,
        })
        assert result._tally is None
        assert result.tally() == (2, 1, 1, 1)
        assert result.failed_primaries == 4
        assert result.r_fast == 0.5
        only_excluded = ScenarioResult(
            FailureScenario(), outcomes={4: ConnectionOutcome.EXCLUDED}
        )
        assert only_excluded.failed_primaries == 0
        assert only_excluded.r_fast is None

    def test_unaffected_scenario_is_empty(self, loaded_torus4):
        evaluator = RecoveryEvaluator(loaded_torus4)
        # Fail a link carrying traffic in a *different* tiny network: build
        # a scenario over a component no channel uses is impossible in the
        # loaded all-pairs network, so check the no-failure equivalent:
        result = evaluator.evaluate(FailureScenario())
        assert result.outcomes == {}
        assert result.r_fast is None

    def test_primary_failure_recovers_via_backup(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        evaluator = RecoveryEvaluator(torus4)
        scenario = FailureScenario.of_links([connection.primary.path.links[0]])
        result = evaluator.evaluate(scenario)
        assert result.outcomes[connection.connection_id] is (
            ConnectionOutcome.FAST_RECOVERED
        )
        assert result.activated_serial[connection.connection_id] == 1
        assert result.r_fast == 1.0

    def test_backup_only_failure_does_not_disrupt(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        evaluator = RecoveryEvaluator(torus4)
        scenario = FailureScenario.of_links([connection.backups[0].path.links[0]])
        result = evaluator.evaluate(scenario)
        assert connection.connection_id not in result.outcomes

    def test_endpoint_failure_excluded(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        evaluator = RecoveryEvaluator(torus4)
        result = evaluator.evaluate(FailureScenario.of_nodes([0]))
        assert result.outcomes[connection.connection_id] is (
            ConnectionOutcome.EXCLUDED
        )
        assert result.failed_primaries == 0

    def test_all_channels_lost(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        evaluator = RecoveryEvaluator(torus4)
        # Fail one interior component of both the primary and the backup.
        scenario = FailureScenario.of_links(
            [connection.primary.path.links[0], connection.backups[0].path.links[0]]
        )
        result = evaluator.evaluate(scenario)
        assert result.outcomes[connection.connection_id] is (
            ConnectionOutcome.CHANNELS_LOST
        )

    def test_backupless_connection_always_lost(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=0, mux_degree=0)
        )
        evaluator = RecoveryEvaluator(torus4)
        scenario = FailureScenario.of_links([connection.primary.path.links[0]])
        result = evaluator.evaluate(scenario)
        assert result.outcomes[connection.connection_id] is (
            ConnectionOutcome.CHANNELS_LOST
        )

    def test_network_state_not_mutated(self, loaded_torus4):
        spares_before = loaded_torus4.ledger.snapshot_spares()
        evaluator = RecoveryEvaluator(loaded_torus4)
        evaluator.evaluate_many(all_single_node_failures(loaded_torus4.topology))
        assert loaded_torus4.ledger.snapshot_spares() == spares_before


class TestMultiplexingFailures:
    def _contended_network(self):
        """Two connections whose primaries share a link, with backups
        multiplexed anyway (degree high enough), so a shared-link failure
        forces both to draw from one under-provisioned pool."""
        network = BCPNetwork(torus(4, 4))
        qos = FaultToleranceQoS(num_backups=1, mux_degree=15)
        first = network.establish(0, 2, ft_qos=qos)
        second = network.establish(0, 2, ft_qos=qos)
        # Same endpoints: identical primaries (deterministic routing), and
        # the backups share every link.
        assert first.primary.path == second.primary.path
        assert first.backups[0].path == second.backups[0].path
        return network, first, second

    def test_shared_pool_is_single_bandwidth(self):
        network, first, _ = self._contended_network()
        for link in first.backups[0].path.links:
            assert network.ledger.spare_reserved(link) == pytest.approx(1.0)

    def test_one_recovers_one_mux_fails(self):
        network, first, second = self._contended_network()
        evaluator = RecoveryEvaluator(network)
        scenario = FailureScenario.of_links([first.primary.path.links[0]])
        result = evaluator.evaluate(scenario)
        outcomes = sorted(value.value for value in result.outcomes.values())
        assert outcomes == ["fast_recovered", "mux_failure"]
        assert result.r_fast == 0.5

    def test_mux1_prevents_the_contention(self):
        network = BCPNetwork(torus(4, 4))
        qos = FaultToleranceQoS(num_backups=1, mux_degree=1)
        first = network.establish(0, 2, ft_qos=qos)
        network.establish(0, 2, ft_qos=qos)
        evaluator = RecoveryEvaluator(network)
        scenario = FailureScenario.of_links([first.primary.path.links[0]])
        assert evaluator.evaluate(scenario).r_fast == 1.0

    def test_free_capacity_fallback_rescues(self):
        network, first, _ = self._contended_network()
        evaluator = RecoveryEvaluator(network, free_capacity_fallback=True)
        scenario = FailureScenario.of_links([first.primary.path.links[0]])
        assert evaluator.evaluate(scenario).r_fast == 1.0

    def test_priority_order_favours_low_degree(self):
        network = BCPNetwork(torus(4, 4))
        low_priority = network.establish(
            0, 2, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=15)
        )
        high_priority = network.establish(
            0, 2, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=14)
        )
        evaluator = RecoveryEvaluator(network, order=ActivationOrder.PRIORITY)
        scenario = FailureScenario.of_links([low_priority.primary.path.links[0]])
        result = evaluator.evaluate(scenario)
        assert result.outcomes[high_priority.connection_id] is (
            ConnectionOutcome.FAST_RECOVERED
        )

    def test_connection_id_order_favours_earlier(self):
        network = BCPNetwork(torus(4, 4))
        early = network.establish(
            0, 2, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=15)
        )
        network.establish(
            0, 2, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=14)
        )
        evaluator = RecoveryEvaluator(network, order=ActivationOrder.CONNECTION_ID)
        scenario = FailureScenario.of_links([early.primary.path.links[0]])
        result = evaluator.evaluate(scenario)
        assert result.outcomes[early.connection_id] is (
            ConnectionOutcome.FAST_RECOVERED
        )

    def test_random_order_is_seed_reproducible(self, loaded_torus4):
        scenario = all_single_node_failures(loaded_torus4.topology)[3]
        a = RecoveryEvaluator(
            loaded_torus4, order=ActivationOrder.RANDOM, seed=5
        ).evaluate(scenario)
        b = RecoveryEvaluator(
            loaded_torus4, order=ActivationOrder.RANDOM, seed=5
        ).evaluate(scenario)
        assert a.outcomes == b.outcomes


class TestFloatBandwidths:
    def test_non_representable_bandwidths_do_not_corrupt_pools(self):
        # Regression: bandwidths like 2.4 leave ~1e-16 residues in the
        # pools; those must be absorbed, not treated as fallback draws.
        network = BCPNetwork(torus(4, 4, capacity=50.0))
        from repro import TrafficSpec

        connections = [
            network.establish(
                0, 2 + i,
                traffic=TrafficSpec(bandwidth=2.4),
                ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=6),
            )
            for i in range(3)
        ]
        evaluator = RecoveryEvaluator(network)
        for connection in connections:
            scenario = FailureScenario.of_links(
                [connection.primary.path.links[0]]
            )
            result = evaluator.evaluate(scenario)  # must not raise
            assert result.failed_primaries >= 1

    def test_fallback_mode_with_float_bandwidths(self):
        from repro import TrafficSpec

        network = BCPNetwork(torus(4, 4, capacity=50.0))
        connection = network.establish(
            0, 2, traffic=TrafficSpec(bandwidth=2.4),
            ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=6),
        )
        evaluator = RecoveryEvaluator(network, free_capacity_fallback=True)
        scenario = FailureScenario.of_links([connection.primary.path.links[0]])
        assert evaluator.evaluate(scenario).r_fast == 1.0


class TestSecondBackupRescue:
    def test_second_backup_used_when_first_dies(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=2, mux_degree=1)
        )
        evaluator = RecoveryEvaluator(torus4)
        scenario = FailureScenario.of_links(
            [connection.primary.path.links[0], connection.backups[0].path.links[0]]
        )
        result = evaluator.evaluate(scenario)
        assert result.outcomes[connection.connection_id] is (
            ConnectionOutcome.FAST_RECOVERED
        )
        assert result.activated_serial[connection.connection_id] == 2


class TestSpareOverride:
    def test_uniform_override_caps_at_capacity(self, loaded_torus4):
        evaluator = RecoveryEvaluator(loaded_torus4, spare_override=1e9)
        stats = evaluator.evaluate_many(
            all_single_link_failures(loaded_torus4.topology)
        )
        assert stats.r_fast == 1.0  # unlimited spare: only dead backups fail

    def test_zero_override_blocks_all_activations(self, loaded_torus4):
        evaluator = RecoveryEvaluator(loaded_torus4, spare_override=0.0)
        stats = evaluator.evaluate_many(
            all_single_link_failures(loaded_torus4.topology)
        )
        assert stats.r_fast == 0.0
        assert stats.mux_failures == stats.failed_primaries

    def test_mapping_override(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        # Give spare only on the backup's own links.
        pools = {link: 1.0 for link in connection.backups[0].path.links}
        evaluator = RecoveryEvaluator(torus4, spare_override=pools)
        scenario = FailureScenario.of_links([connection.primary.path.links[0]])
        assert evaluator.evaluate(scenario).r_fast == 1.0

    @pytest.mark.parametrize("amount", [float("nan"), -1.0, float("-inf")])
    def test_bad_uniform_override_rejected(self, loaded_torus4, amount):
        with pytest.raises(ValueError, match="spare_override must be non-negative"):
            RecoveryEvaluator(loaded_torus4, spare_override=amount)

    @pytest.mark.parametrize("amount", [float("nan"), -0.5])
    def test_bad_mapping_value_rejected(self, loaded_torus4, amount):
        link = next(iter(loaded_torus4.topology.links()))
        with pytest.raises(ValueError, match=f"link {link} must be non-negative"):
            RecoveryEvaluator(loaded_torus4, spare_override={link: amount})

    @pytest.mark.parametrize("key", [LinkId(99, 100), LinkId(0, 5), 0])
    def test_mapping_key_outside_topology_rejected(self, loaded_torus4, key):
        # LinkId(0, 5): both nodes exist, the link does not; 0: a node id.
        with pytest.raises(ValueError, match="not a link"):
            RecoveryEvaluator(loaded_torus4, spare_override={key: 5.0})

    def test_infinite_override_accepted(self, loaded_torus4):
        link = next(iter(loaded_torus4.topology.links()))
        for override in (float("inf"), {link: float("inf")}):
            RecoveryEvaluator(loaded_torus4, spare_override=override)


class TestScenarioValidation:
    """A scenario naming a component the topology lacks used to die with a
    bare ``KeyError`` (node) or silently evaluate as "nothing failed"
    (link)."""

    @pytest.mark.parametrize(
        "scenario, offender",
        [
            (FailureScenario.of_nodes([999]), "999"),
            (FailureScenario.of_nodes([3, 999]), "999"),
            (FailureScenario.of_links([LinkId(99, 100)]), "LinkId"),
            (FailureScenario.of_links([LinkId(0, 5)]), "LinkId"),
        ],
    )
    def test_unknown_component_rejected(self, loaded_torus4, scenario, offender):
        evaluator = RecoveryEvaluator(loaded_torus4)
        with pytest.raises(ValueError, match=f"{offender}.*not a component"):
            evaluator.evaluate(scenario)
        with pytest.raises(ValueError, match="not a component"):
            evaluator.evaluate_many([scenario])


class TestAggregation:
    def test_uniform_mux1_gives_full_single_failure_coverage(self, loaded_torus4):
        # The paper's guarantee: mux=1 -> perfect recovery from any single
        # failure.  The fixture uses mux=3, so rebuild with mux=1.
        network = BCPNetwork(torus(4, 4))
        qos = FaultToleranceQoS(num_backups=1, mux_degree=1)
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    network.establish(src, dst, ft_qos=qos)
        evaluator = RecoveryEvaluator(network)
        links = evaluator.evaluate_many(all_single_link_failures(network.topology))
        nodes = evaluator.evaluate_many(all_single_node_failures(network.topology))
        assert links.r_fast == 1.0
        assert nodes.r_fast == 1.0

    def test_mux3_guarantees_single_link_coverage(self, loaded_torus4):
        evaluator = RecoveryEvaluator(loaded_torus4)
        stats = evaluator.evaluate_many(
            all_single_link_failures(loaded_torus4.topology)
        )
        assert stats.r_fast == 1.0

    def test_stats_partition(self, loaded_torus4):
        evaluator = RecoveryEvaluator(loaded_torus4)
        stats = evaluator.evaluate_many(
            all_single_node_failures(loaded_torus4.topology)
        )
        assert (
            stats.fast_recovered + stats.mux_failures + stats.channels_lost
            == stats.failed_primaries
        )
        assert stats.scenarios == 16
        assert stats.failed_primaries > 0


class TestRecoveryStats:
    def test_add_scenario_validates_partition(self):
        stats = RecoveryStats()
        with pytest.raises(ValueError, match="partition"):
            stats.add_scenario(10, 5, 2, 1, 0)

    def test_r_fast_none_when_nothing_failed(self):
        assert RecoveryStats().r_fast is None

    def test_merge(self):
        a = RecoveryStats()
        a.add_scenario(10, 8, 1, 1, 0)
        b = RecoveryStats()
        b.add_scenario(10, 10, 0, 0, 2)
        merged = a.merge(b)
        assert merged.failed_primaries == 20
        assert merged.r_fast == pytest.approx(18 / 20)
        assert merged.excluded_connections == 2
        assert merged.scenarios == 2
