"""Reproducibility: identical inputs must give identical outputs.

The whole pipeline is seeded and tie-breaks are deterministic, so every
experiment must be bit-for-bit repeatable — the property that makes the
EXPERIMENTS.md numbers meaningful.
"""

from __future__ import annotations

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.experiments.panel import run_table1
from repro.network.spec import TopologySpec
from repro.experiments.workloads import all_pairs, establish_workload
from repro.faults import sample_double_node_failures
from repro.faults import FailureScenario
from tests.planted import LossySimulation, retransmission_budget


class TestDeterminism:
    def test_establishment_is_deterministic(self):
        def snapshot():
            network = BCPNetwork(torus(4, 4, capacity=200.0))
            establish_workload(
                network,
                all_pairs(network.topology),
                FaultToleranceQoS(num_backups=1, mux_degree=3),
            )
            return (
                network.ledger.snapshot_spares(),
                [tuple(c.primary.path.nodes) for c in network.connections()],
                [tuple(c.backups[0].path.nodes)
                 for c in network.connections()],
            )

        assert snapshot() == snapshot()

    def test_table1_repeatable(self):
        config = TopologySpec(rows=3, cols=3)
        panel = dict(num_backups=1, mux_degrees=(3,), double_node_samples=5)
        first = run_table1(config, **panel)
        second = run_table1(config, **panel)
        assert first.spare == second.spare
        assert first.r_fast == second.r_fast

    def test_double_node_sampling_seeded(self):
        topology = torus(4, 4)
        a = sample_double_node_failures(topology, 20, seed=3)
        b = sample_double_node_failures(topology, 20, seed=3)
        c = sample_double_node_failures(topology, 20, seed=4)
        assert [s.failed_nodes for s in a] == [s.failed_nodes for s in b]
        assert [s.failed_nodes for s in a] != [s.failed_nodes for s in c]

    def test_protocol_run_repeatable(self, monkeypatch):
        retransmission_budget(monkeypatch, 12)

        def run_once():
            network = BCPNetwork(torus(4, 4, capacity=200.0))
            connection = network.establish(
                0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
            )
            scenario = FailureScenario.of_links(
                [connection.primary.path.links[1]]
            )
            simulation = LossySimulation(network, seed=9, loss=0.2)
            simulation.inject_scenario(scenario, 1.0)
            simulation.run(until=500.0)
            record = simulation.metrics.recoveries[connection.connection_id]
            return (record.recovered_serial, record.service_disruption,
                    record.completed_at)

        assert run_once() == run_once()
