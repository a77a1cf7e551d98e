"""Tests for the experiment harness at reduced scale.

Full-scale (8x8) regeneration lives in benchmarks/paper; these tests check the
harness machinery itself — workload drivers, result shapes, the paper's
qualitative relationships — on 4x4 networks.
"""

from __future__ import annotations

import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.experiments.delay_bound import run_delay_bound
from repro.experiments.figure9 import run_figure9
from repro.experiments.panel import run_table1, run_table3
from repro.experiments.rcc_sizing import run_rcc_sizing
from repro.experiments.reliability import run_reliability
from repro.experiments.setup import FAILURE_MODELS, standard_failure_models
from repro.experiments.table2 import run_table2
from repro.experiments.workloads import (
    all_pairs,
    establish_workload,
    hotspot_pairs,
    mixed_bandwidth_traffic,
    uniform_traffic,
)
from repro.network.spec import TopologySpec

CFG = TopologySpec(rows=4, cols=4)
MESH_CFG = TopologySpec(family="mesh", rows=4, cols=4)


class TestWorkloads:
    def test_all_pairs_count(self):
        topology = torus(4, 4)
        pairs = all_pairs(topology)
        assert len(pairs) == 16 * 15
        assert all(src != dst for src, dst in pairs)

    def test_hotspot_pairs_skewed(self):
        topology = torus(4, 4)
        pairs = hotspot_pairs(topology, hotspots=[0])
        assert len(pairs) == len(all_pairs(topology))
        share = sum(1 for s, d in pairs if 0 in (s, d)) / len(pairs)
        baseline = sum(
            1 for s, d in all_pairs(topology) if 0 in (s, d)
        ) / len(all_pairs(topology))
        assert share > baseline

    def test_traffic_generators(self):
        assert uniform_traffic(2.0)(5).bandwidth == 2.0
        mixed = mixed_bandwidth_traffic()
        values = {mixed(i).bandwidth for i in range(50)}
        assert values == {0.5, 1.0, 2.0, 4.0}

    def test_establish_workload_reports(self):
        network = BCPNetwork(torus(4, 4))
        report = establish_workload(
            network,
            all_pairs(network.topology),
            FaultToleranceQoS(num_backups=1, mux_degree=3),
            checkpoint_every=60,
        )
        assert report.complete
        assert report.established == 240
        assert len(report.checkpoints) >= 4
        loads = [load for load, _ in report.checkpoints]
        assert loads == sorted(loads)

    @pytest.mark.parametrize("every, samples", [(60, 4), (70, 4), (None, 1)])
    def test_final_checkpoint_is_sampled_once(self, every, samples):
        # 240 pairs: every=60 divides the workload (the Figure 9 default,
        # 4032 / 8), so the loop's last sample *is* the final state.
        network = BCPNetwork(torus(4, 4))
        report = establish_workload(
            network,
            all_pairs(network.topology),
            FaultToleranceQoS(num_backups=1, mux_degree=3),
            checkpoint_every=every,
        )
        assert len(report.checkpoints) == samples
        assert report.checkpoints[-1] == (
            network.network_load(), network.spare_fraction()
        )
        assert len(set(report.checkpoints)) == samples

    def test_establish_workload_tolerates_rejections(self):
        network = BCPNetwork(torus(4, 4, capacity=3.0))
        report = establish_workload(
            network,
            all_pairs(network.topology),
            FaultToleranceQoS(num_backups=1, mux_degree=0),
        )
        assert not report.complete
        assert report.rejected > 0

    def test_per_connection_qos_function(self):
        network = BCPNetwork(torus(4, 4))
        degrees = (1, 6)
        establish_workload(
            network,
            all_pairs(network.topology)[:20],
            lambda i: FaultToleranceQoS(num_backups=1, mux_degree=degrees[i % 2]),
        )
        seen = {conn.mux_degree for conn in network.connections()}
        assert seen == {1, 6}


class TestSetup:
    def test_network_config_builds_paper_defaults(self):
        assert TopologySpec().build().capacity(next(iter(
            TopologySpec().build().links()
        ))) == 200.0
        assert MESH_CFG.build().name == "4x4 mesh"

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            TopologySpec(family="hyperloop").build()

    def test_standard_failure_models_shapes(self):
        topology = torus(4, 4)
        models = standard_failure_models(topology, double_node_samples=10)
        assert set(models) == set(FAILURE_MODELS)
        assert len(models["1 link failure"]) == topology.num_links
        assert len(models["1 node failure"]) == 16
        assert len(models["2 node failures"]) == 10


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1(CFG, num_backups=1, mux_degrees=(1, 3, 6),
                          double_node_samples=20)

    def test_mux1_guarantees_single_failures(self, result):
        assert result.r_fast["1 link failure"][1] == 1.0
        assert result.r_fast["1 node failure"][1] == 1.0

    def test_mux3_guarantees_single_link(self, result):
        assert result.r_fast["1 link failure"][3] == 1.0

    def test_spare_decreases_with_degree(self, result):
        assert result.spare[1] > result.spare[3] > result.spare[6]

    def test_r_fast_decreases_with_degree(self, result):
        for model in FAILURE_MODELS:
            values = [result.r_fast[model][d] for d in (1, 3, 6)]
            assert values[0] >= values[1] >= values[2]

    def test_format_contains_all_rows(self, result):
        text = result.format()
        assert "Spare bandwidth" in text
        for model in FAILURE_MODELS:
            assert model in text

    def test_double_backup_improves_coverage(self):
        single = run_table1(CFG, num_backups=1, mux_degrees=(6,),
                            double_node_samples=20)
        double = run_table1(CFG, num_backups=2, mux_degrees=(6,),
                            double_node_samples=20)
        for model in FAILURE_MODELS:
            assert double.r_fast[model][6] >= single.r_fast[model][6]


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table2(CFG, num_backups=1, classes=(1, 3, 6),
                          double_node_samples=20)

    def test_single_spare_figure(self, result):
        assert result.spare is not None
        assert 0 < result.spare < 0.5

    def test_class_ordering_preserved_for_single_failures(self, result):
        # Per-connection control: lower degree -> higher R_fast per class.
        # (Double-node failures add channels-lost noise that can invert
        # adjacent classes at this small scale, so only the single-failure
        # models are checked strictly.)
        for model in ("1 link failure", "1 node failure"):
            values = [result.r_fast[model][degree] for degree in (1, 3, 6)]
            present = [v for v in values if v is not None]
            assert present == sorted(present, reverse=True)

    def test_extreme_classes_ordered_for_double_failures(self, result):
        high = result.r_fast["2 node failures"][1]
        low = result.r_fast["2 node failures"][6]
        assert high is not None and low is not None
        assert high >= low - 0.05

    def test_mux1_class_fully_covered_for_single_failures(self, result):
        assert result.r_fast["1 link failure"][1] == 1.0
        assert result.r_fast["1 node failure"][1] == 1.0

    def test_mixed_spare_between_extremes(self, result):
        uniform = run_table1(CFG, num_backups=1, mux_degrees=(1, 6),
                             double_node_samples=5)
        assert uniform.spare[6] < result.spare < uniform.spare[1]


class TestTable3:
    @pytest.fixture(scope="class")
    def results(self):
        panel = dict(num_backups=1, mux_degrees=(3, 6),
                     double_node_samples=20)
        proposed = run_table1(CFG, **panel)
        brute = run_table3(CFG, **panel)
        return proposed, brute

    def test_same_spare_budget(self, results):
        proposed, brute = results
        for degree in (3, 6):
            assert brute.spare[degree] == pytest.approx(
                proposed.spare[degree], rel=1e-6
            )

    def test_proposed_wins_single_link_at_low_degree(self, results):
        proposed, brute = results
        assert proposed.r_fast["1 link failure"][3] == 1.0
        assert brute.r_fast["1 link failure"][3] <= 1.0

    def test_format(self, results):
        _, brute = results
        assert "brute-force" in brute.format()


class TestAnalyticExperiments:
    def test_delay_bound_holds(self):
        result = run_delay_bound(CFG, num_backups=2, connections=3)
        assert result.measurements
        assert result.violations == []
        assert "within" in result.format()

    def test_rcc_sizing_compliant_vs_undersized(self):
        result = run_rcc_sizing(CFG)
        compliant = result.worst_delay[result.required_messages]
        undersized = result.worst_delay[2]
        assert compliant <= result.budget + 1e-9
        assert undersized > compliant

    def test_reliability_models_agree(self):
        result = run_reliability(TopologySpec(rows=3, cols=3), workers=1)
        for markov, combinatorial in result.model_comparison.values():
            assert markov == pytest.approx(combinatorial, abs=1e-5)
        assert result.configuration_sweep
        text = result.format()
        assert "Markov" in text

    def test_figure9_curves_monotone(self):
        result = run_figure9(CFG, num_backups=1, mux_degrees=(0, 6),
                             checkpoints=4)
        for degree, curve in result.curves.items():
            spares = [spare for _, spare in curve]
            assert spares == sorted(spares), degree
        # Multiplexing saves spare at equal load.
        assert result.final_spare(6) < result.final_spare(0)
