"""Tests of the protocol invariant auditor (repro.protocol.invariants)."""

from __future__ import annotations

import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.faults import FailureScenario
from repro.network.components import LinkId
from repro.protocol import (
    InvariantAuditor,
    ProtocolSimulation,
)
from repro.protocol.messages import RCCFrame
from repro.protocol.states import ChannelEvent, LocalChannelState
from tests.planted import DoubleReleaseSimulation


@pytest.fixture
def single_connection():
    network = BCPNetwork(torus(4, 4, capacity=200.0))
    connection = network.establish(
        0, 10, ft_qos=FaultToleranceQoS(num_backups=2, mux_degree=1)
    )
    return network, connection


def audited_run(network, scenario, config=None, horizon=500.0):
    simulation = ProtocolSimulation(network, config, seed=0)
    auditor = InvariantAuditor(simulation)
    auditor.attach()
    simulation.inject_scenario(scenario, at=1.0)
    simulation.run(until=horizon)
    auditor.check_quiescent(drained=simulation.engine.pending == 0)
    return simulation, auditor


class TestCleanRuns:
    def test_normal_recovery_violates_nothing(self, single_connection):
        network, connection = single_connection
        scenario = FailureScenario.of_links(
            [connection.primary.path.links[1]]
        )
        simulation, auditor = audited_run(network, scenario)
        assert simulation.metrics.recovered_count() == 1
        assert auditor.ok
        assert auditor.violations == []

    def test_node_failure_and_repair_violates_nothing(
        self, single_connection
    ):
        network, connection = single_connection
        mid_node = connection.primary.path.nodes[2]
        simulation = ProtocolSimulation(network, seed=0)
        auditor = InvariantAuditor(simulation)
        auditor.attach()
        simulation.fail(mid_node, at=1.0)
        simulation.repair(mid_node, at=120.0)
        simulation.run(until=500.0)
        auditor.check_quiescent(drained=simulation.engine.pending == 0)
        assert auditor.ok, [v.detail for v in auditor.violations]

    def test_detach_removes_hooks(self, single_connection):
        network, _ = single_connection
        simulation = ProtocolSimulation(network, seed=0)
        auditor = InvariantAuditor(simulation)
        auditor.attach()
        auditor.detach()
        assert all(
            rcc.on_frame_delivered is None
            for rcc in simulation._rcc.values()
        )


class TestPlantedDoubleRelease:
    def test_auditor_catches_spare_pool_drift(self, single_connection):
        """The planted bug (``tests/planted.py``) credits released draws
        back into the spare pool; conservation must flag the drift."""
        network, connection = single_connection
        scenario = FailureScenario.of_links(
            [connection.primary.path.links[1]]
        )
        simulation = DoubleReleaseSimulation(network, seed=0)
        auditor = InvariantAuditor(simulation)
        auditor.attach()
        simulation.inject_scenario(scenario, at=1.0)
        # Kill the activated backup too: its nodes' rejoin timers expire
        # and release their draws — through the buggy double-credit path.
        simulation.fail(connection.backups[0].path.links[1], at=20.0)
        simulation.run(until=500.0)
        auditor.check_quiescent(drained=simulation.engine.pending == 0)
        names = {violation.invariant for violation in auditor.violations}
        assert "reservation-conservation" in names

    def test_same_run_is_clean_without_the_bug(self, single_connection):
        network, connection = single_connection
        scenario = FailureScenario.of_links(
            [connection.primary.path.links[1]]
        )
        simulation = ProtocolSimulation(network, seed=0)
        auditor = InvariantAuditor(simulation)
        auditor.attach()
        simulation.inject_scenario(scenario, at=1.0)
        simulation.fail(connection.backups[0].path.links[1], at=20.0)
        simulation.run(until=500.0)
        auditor.check_quiescent(drained=simulation.engine.pending == 0)
        assert auditor.ok, [v.detail for v in auditor.violations]


class TestDirectChecks:
    """Unit-level checks of the individual invariant detectors."""

    def test_delivered_seq_beyond_sender_counter(self, single_connection):
        network, _ = single_connection
        simulation = ProtocolSimulation(network, seed=0)
        auditor = InvariantAuditor(simulation)
        auditor.attach()
        rcc = simulation._rcc[LinkId(0, 1)]
        frame = RCCFrame(seq=5, messages=(), acks=())
        auditor._on_frame_delivered(rcc, frame)
        assert any(
            v.invariant == "rcc-monotonicity" for v in auditor.violations
        )

    def test_duplicate_delivery_detected(self, single_connection):
        network, _ = single_connection
        simulation = ProtocolSimulation(network, seed=0)
        auditor = InvariantAuditor(simulation)
        auditor.attach()
        rcc = simulation._rcc[LinkId(0, 1)]
        rcc._next_seq = 10
        frame = RCCFrame(seq=3, messages=(), acks=())
        auditor._on_frame_delivered(rcc, frame)
        assert auditor.ok
        auditor._on_frame_delivered(rcc, frame)
        assert any(
            v.invariant == "rcc-monotonicity" and "twice" in v.detail
            for v in auditor.violations
        )

    def test_delivery_on_dead_link_detected(self, single_connection):
        network, _ = single_connection
        simulation = ProtocolSimulation(network, seed=0)
        auditor = InvariantAuditor(simulation)
        auditor.attach()
        rcc = simulation._rcc[LinkId(0, 1)]
        rcc._next_seq = 1
        simulation.failed_components.add(rcc.link)
        auditor._on_frame_delivered(
            rcc, RCCFrame(seq=0, messages=(), acks=())
        )
        assert any(
            v.invariant == "dead-link-delivery" for v in auditor.violations
        )

    def test_draw_leak_detected(self, single_connection):
        network, _ = single_connection
        simulation = ProtocolSimulation(network, seed=0)
        auditor = InvariantAuditor(simulation)
        auditor.attach()
        link = sorted(network.topology.links(), key=str)[0]
        simulation._draws.setdefault(link, {})[999_999] = 1.0
        auditor.check_quiescent(drained=True)
        assert any(
            v.invariant == "draw-leak" for v in auditor.violations
        )

    def test_stuck_soft_state_detected(self, single_connection):
        network, connection = single_connection
        simulation = ProtocolSimulation(network, seed=0)
        auditor = InvariantAuditor(simulation)
        auditor.attach()
        daemon = simulation.daemons[connection.source]
        record = daemon.records[connection.primary.channel_id]
        record.transition(LocalChannelState.UNHEALTHY, ChannelEvent.FAIL)
        auditor.check_quiescent(drained=True)
        assert any(
            v.invariant == "stuck-soft-state" for v in auditor.violations
        )

    def test_transient_states_not_flagged_when_undrained(
        self, single_connection
    ):
        network, connection = single_connection
        simulation = ProtocolSimulation(network, seed=0)
        auditor = InvariantAuditor(simulation)
        auditor.attach()
        daemon = simulation.daemons[connection.source]
        record = daemon.records[connection.primary.channel_id]
        record.transition(LocalChannelState.UNHEALTHY, ChannelEvent.FAIL)
        auditor.check_quiescent(drained=False)
        assert auditor.ok

    def test_violation_cap(self, single_connection):
        network, _ = single_connection
        simulation = ProtocolSimulation(network, seed=0)
        auditor = InvariantAuditor(simulation)
        from repro.protocol.invariants import MAX_VIOLATIONS

        for index in range(MAX_VIOLATIONS + 50):
            auditor.record("test", index, "synthetic")
        assert len(auditor.violations) == MAX_VIOLATIONS

    def test_violation_as_dict(self):
        from repro.protocol.invariants import InvariantViolation

        violation = InvariantViolation(
            time=1.5, invariant="draw-leak", subject="0->1", detail="x"
        )
        assert violation.as_dict() == {
            "time": 1.5,
            "invariant": "draw-leak",
            "subject": "0->1",
            "detail": "x",
        }


class TestLedgerAudit:
    def test_clean_ledger_audits_empty(self, single_connection):
        network, _ = single_connection
        assert network.ledger.audit() == []

    def test_negative_and_overcommitted_pools_reported(self):
        network = BCPNetwork(torus(3, 3, capacity=10.0))
        ledger = network.ledger
        link = sorted(network.topology.links(), key=str)[0]
        entry = ledger.ledger(link)
        entry.spare = -1.0
        problems = ledger.audit()
        assert any("negative spare" in problem for problem in problems)
        entry.spare = 0.0
        entry.primary = 11.0
        problems = ledger.audit()
        assert any("exceeds" in problem for problem in problems)

    def test_conservation_flags_phantom_pool(self, single_connection):
        network, _ = single_connection
        simulation = ProtocolSimulation(network, seed=0)
        auditor = InvariantAuditor(simulation)
        auditor.attach()
        phantom = LinkId("ghost-a", "ghost-b")
        simulation._spare_pools[phantom] = 5.0
        auditor.check_event()
        assert any(
            v.invariant == "reservation-conservation"
            and "appeared" in v.detail
            for v in auditor.violations
        )
