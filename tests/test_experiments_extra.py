"""Small-scale API tests for the remaining experiments (scaling, baseline
comparison, inhomogeneous) and the runtime's control-plane accounting."""

from __future__ import annotations

import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.experiments.baseline_comparison import run_baseline_comparison
from repro.experiments.inhomogeneous import run_inhomogeneous
from repro.experiments.scaling import run_scaling
from repro.network.spec import TopologySpec
from repro.faults import FailureScenario
from repro.protocol import ProtocolConfig, ProtocolSimulation


class TestScalingExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scaling(mux_degree=5, torus_sizes=(3, 4))

    def test_points_and_format(self, result):
        assert len(result.points) == 4  # two tori + the connectivity sweep
        text = result.format()
        assert "3x3 torus" in text and "saving" in text

    def test_saving_in_unit_range(self, result):
        for point in result.points:
            assert 0.0 <= point.saving <= 1.0
            assert 0.0 <= point.multiplexable_fraction <= 1.0

    def test_multiplexing_actually_saves(self, result):
        for point in result.points:
            assert point.spare_multiplexed < point.spare_unshared

    def test_unknown_label_raises(self, result):
        with pytest.raises(KeyError):
            result.point("9x9 torus")


class TestBaselineComparisonExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_baseline_comparison(
            TopologySpec(rows=4, cols=4), mux_degree=3
        )

    def test_three_schemes(self, result):
        assert len(result.schemes) == 3
        assert "local detours" in result.format()

    def test_overhead_ordering(self, result):
        bcp = result.scheme("BCP (1 backup, mux=3)")
        reactive = result.scheme("reactive re-establishment")
        detour = result.scheme("pre-planned local detours")
        assert reactive.spare_fraction == 0.0
        assert 0 < bcp.spare_fraction < detour.spare_fraction

    def test_latency_columns_populated(self, result):
        bcp = result.scheme("BCP (1 backup, mux=3)")
        reactive = result.scheme("reactive re-establishment")
        assert bcp.mean_disruption is not None
        assert reactive.mean_disruption > bcp.mean_disruption


class TestInhomogeneousExperiment:
    def test_small_sweep(self):
        result = run_inhomogeneous(rows=4, cols=4, mux_degree=5)
        assert len(result.cells) == 9  # 3 topologies x 3 workloads
        text = result.format()
        assert "hotspot" in text and "mixed-bw" in text
        for cell in result.cells.values():
            assert cell.proposed_r_fast is not None
            assert cell.bruteforce_r_fast is not None


class TestControlPlaneAccounting:
    def test_totals_and_worst_delay(self):
        network = BCPNetwork(torus(4, 4, capacity=200.0))
        connection = network.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        simulation = ProtocolSimulation(network, ProtocolConfig())
        simulation.inject_scenario(
            FailureScenario.of_links([connection.primary.path.links[1]]),
            at=5.0,
        )
        simulation.run(until=300.0)
        totals = simulation.rcc_totals()
        assert totals["messages_sent"] > 0
        assert totals["messages_delivered"] <= totals["messages_sent"]
        assert totals["frames_lost"] >= 0
        # A single recovery on an idle RCC never queues: worst per-hop
        # delay equals D_max exactly.
        assert simulation.worst_control_delay() == pytest.approx(
            ProtocolConfig().rcc.max_delay
        )

    def test_idle_network_has_no_control_traffic(self):
        network = BCPNetwork(torus(3, 3, capacity=200.0))
        network.establish(0, 4,
                          ft_qos=FaultToleranceQoS(num_backups=1,
                                                   mux_degree=1))
        simulation = ProtocolSimulation(network, ProtocolConfig())
        simulation.run(until=100.0)
        assert simulation.rcc_totals()["messages_sent"] == 0
        assert simulation.worst_control_delay() == 0.0
