"""Cross-checks between the two evaluation paths.

The combinatorial :class:`RecoveryEvaluator` and the event-level
:class:`ProtocolSimulation` model the same recovery process at different
fidelities; on scenarios without spare contention their per-connection
outcomes must agree exactly, and network-wide accounting must line up.
"""

from __future__ import annotations

import itertools

import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.faults import (
    FailureScenario,
    all_single_link_failures,
    all_single_node_failures,
)
from repro.protocol import ProtocolConfig, simulate_scenario
from repro.recovery import ConnectionOutcome, RecoveryEvaluator
from tests.switchover_oracle import switch_to_backup


@pytest.fixture(scope="module")
def mux1_network():
    """All-pairs 4x4 torus at mux=1: single failures cause no contention,
    so both evaluation paths must agree connection by connection."""
    network = BCPNetwork(torus(4, 4, capacity=200.0))
    qos = FaultToleranceQoS(num_backups=1, mux_degree=1)
    for src in range(16):
        for dst in range(16):
            if src != dst:
                network.establish(src, dst, ft_qos=qos)
    return network


def protocol_outcomes(network, scenario):
    metrics = simulate_scenario(
        network, scenario, ProtocolConfig(), horizon=600.0
    )
    recovered, lost = set(), set()
    for connection_id, record in metrics.recoveries.items():
        if record.endpoint_failed:
            continue
        if record.failed_at is None:
            continue
        if record.recovered:
            recovered.add(connection_id)
        else:
            lost.add(connection_id)
    return recovered, lost


def evaluator_outcomes(network, scenario):
    result = RecoveryEvaluator(network).evaluate(scenario)
    recovered = {
        cid for cid, outcome in result.outcomes.items()
        if outcome is ConnectionOutcome.FAST_RECOVERED
    }
    lost = {
        cid for cid, outcome in result.outcomes.items()
        if outcome in (ConnectionOutcome.MUX_FAILURE,
                       ConnectionOutcome.CHANNELS_LOST)
    }
    return recovered, lost


class TestCrossCheck:
    @pytest.mark.parametrize("index", range(0, 40, 7))
    def test_single_link_scenarios_agree(self, mux1_network, index):
        scenarios = all_single_link_failures(mux1_network.topology)
        scenario = scenarios[index % len(scenarios)]
        proto_rec, proto_lost = protocol_outcomes(mux1_network, scenario)
        eval_rec, eval_lost = evaluator_outcomes(mux1_network, scenario)
        assert proto_rec == eval_rec
        assert proto_lost == eval_lost

    @pytest.mark.parametrize("node", [0, 5, 10])
    def test_single_node_scenarios_agree(self, mux1_network, node):
        scenario = all_single_node_failures(mux1_network.topology)[node]
        proto_rec, proto_lost = protocol_outcomes(mux1_network, scenario)
        eval_rec, eval_lost = evaluator_outcomes(mux1_network, scenario)
        assert proto_rec == eval_rec
        assert proto_lost == eval_lost

    def test_link_pairs_through_one_link_agree(self, mux1_network):
        # Two simplex links failing together: every pair that includes
        # one fixed link.  Both paths read the one compiled plan of the
        # same network, and at mux=1 no spare pool is contended, so the
        # recovered and lost sets agree connection by connection.
        fixed, *others = mux1_network.topology.links()
        assert len(others) == 63
        disrupted = 0
        for other in others:
            scenario = FailureScenario.of_links([fixed, other])
            proto_rec, proto_lost = protocol_outcomes(mux1_network, scenario)
            eval_rec, eval_lost = evaluator_outcomes(mux1_network, scenario)
            assert proto_rec == eval_rec, other
            assert proto_lost == eval_lost, other
            disrupted += len(eval_lost)
        # Some pairs cut a primary and its backup at once.
        assert disrupted

    def test_node_pairs_disagree_where_a_dead_end_node_draws(
        self, mux1_network
    ):
        # Two nodes failing together: all C(16, 2) pairs.  Exactly one
        # connection of one pair comes out differently, and it is a
        # contention that only the protocol has: the surviving end-node of
        # a connection whose other end crashed still sends its backup's
        # activation, which takes spare up to the dead node, while the
        # evaluator excludes that connection (Section 7.2) and draws
        # nothing for it.  For node pair (0, 9) that is 8 -> 0, whose
        # activation takes a unit of 8->12, where the evaluator's ten
        # recoverable activations fit the pool of 10 exactly; in the
        # protocol 5 -> 15 (connection 89) arrives last and mux-fails.
        disagree = {}
        for pair in itertools.combinations(range(16), 2):
            scenario = FailureScenario.of_nodes(pair)
            proto_rec, proto_lost = protocol_outcomes(mux1_network, scenario)
            eval_rec, eval_lost = evaluator_outcomes(mux1_network, scenario)
            assert proto_rec | proto_lost == eval_rec | eval_lost, pair
            if proto_rec != eval_rec:
                disagree[pair] = (eval_rec - proto_rec, proto_rec - eval_rec)
        assert disagree == {(0, 9): ({89}, set())}

    def test_full_single_failure_coverage_both_paths(self, mux1_network):
        # The paper's mux=1 guarantee holds under both models.
        for scenario in all_single_link_failures(mux1_network.topology)[:8]:
            _, proto_lost = protocol_outcomes(mux1_network, scenario)
            _, eval_lost = evaluator_outcomes(mux1_network, scenario)
            assert proto_lost == set()
            assert eval_lost == set()

    def test_contended_scenario_same_totals(self):
        # Under contention the *winner* may differ by timing, but the
        # number of fast recoveries is pinned by the pool size.
        network = BCPNetwork(torus(4, 4, capacity=200.0))
        qos = FaultToleranceQoS(num_backups=1, mux_degree=15)
        connections = [network.establish(0, 2, ft_qos=qos) for _ in range(3)]
        from repro.faults import FailureScenario

        scenario = FailureScenario.of_links(
            [connections[0].primary.path.links[0]]
        )
        proto_rec, proto_lost = protocol_outcomes(network, scenario)
        eval_rec, eval_lost = evaluator_outcomes(network, scenario)
        assert len(proto_rec) == len(eval_rec) == 1
        assert len(proto_lost) == len(eval_lost) == 2

    def test_switchover_facade_matches_evaluator(self, mux1_network):
        # The switchover oracle commits exactly the transition the
        # evaluator predicts as FAST_RECOVERED.
        network = BCPNetwork(torus(4, 4, capacity=200.0))
        qos = FaultToleranceQoS(num_backups=1, mux_degree=1)
        connection = network.establish(0, 5, ft_qos=qos)
        from repro.faults import FailureScenario

        scenario = FailureScenario.of_links(
            [connection.primary.path.links[0]]
        )
        result = RecoveryEvaluator(network).evaluate(scenario)
        assert result.outcomes[connection.connection_id] is (
            ConnectionOutcome.FAST_RECOVERED
        )
        report = switch_to_backup(network, connection)
        assert report.fully_restored
        assert connection.primary.serial == 1
