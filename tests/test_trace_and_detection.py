"""Tests for event tracing and heartbeat-based failure detection."""

from __future__ import annotations

import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.faults import FailureScenario
from repro.protocol import ProtocolConfig, ProtocolSimulation
from repro.sim import TraceLog


@pytest.fixture
def traced_run():
    network = BCPNetwork(torus(4, 4, capacity=200.0))
    connection = network.establish(
        0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
    )
    simulation = ProtocolSimulation(network, ProtocolConfig(), trace=True)
    scenario = FailureScenario.of_links([connection.primary.path.links[1]])
    simulation.inject_scenario(scenario, at=5.0)
    simulation.run(until=300.0)
    return connection, simulation


class TestTraceLog:
    def test_disabled_log_records_nothing(self):
        log = TraceLog(enabled=False)
        log.record(1.0, "x", 0, "ignored")
        assert len(log) == 0

    def test_filtering(self):
        log = TraceLog()
        log.record(1.0, "a", 1, "one")
        log.record(2.0, "b", 1, "two")
        log.record(3.0, "a", 2, "three")
        assert len(log.filter(category="a")) == 2
        assert len(log.filter(node=1)) == 2
        assert len(log.filter(since=2.0)) == 2
        assert len(log.filter(until=2.0)) == 2
        assert len(log.filter(category="a", node=2)) == 1

    def test_categories_and_format(self):
        log = TraceLog()
        log.record(1.0, "a", 1, "one")
        log.record(2.0, "a", 1, "two")
        assert [event.category for event in log.events] == ["a", "a"]
        assert "one" in log.format()
        assert "more" in log.format(limit=1)

    def test_filter_accepts_category_set(self):
        log = TraceLog()
        log.record(1.0, "a", 1, "one")
        log.record(2.0, "b", 1, "two")
        log.record(3.0, "c", 2, "three")
        assert len(log.filter(category={"a", "c"})) == 2
        assert len(log.filter(category=("b",))) == 1
        assert log.filter(category=set()) == []
        # Combined with node/time filters.
        assert len(log.filter(category={"a", "b", "c"}, node=1)) == 2
        assert len(log.filter(category={"b", "c"}, since=2.5)) == 1

    def test_format_tail(self):
        log = TraceLog()
        for i in range(5):
            log.record(float(i), "a", 1, f"event{i}")
        tail = log.format(tail=2)
        assert "event4" in tail and "event3" in tail
        assert "event0" not in tail
        assert "3 earlier" in tail
        # A tail wider than the log shows everything, no marker.
        assert "earlier" not in log.format(tail=10)

    def test_format_limit_and_tail_exclusive(self):
        log = TraceLog()
        with pytest.raises(ValueError):
            log.format(limit=1, tail=1)

    def test_to_jsonl(self):
        import json

        log = TraceLog()
        assert log.to_jsonl() == ""
        log.record(1.5, "a", 1, "one")
        log.record(2.0, "b", None, "two")
        text = log.to_jsonl()
        assert text.endswith("\n")
        rows = [json.loads(line) for line in text.splitlines()]
        assert rows[0] == {"time": 1.5, "category": "a", "node": 1,
                           "description": "one"}
        assert rows[1]["node"] is None


class TestProtocolTracing:
    def test_recovery_leaves_causal_trail(self, traced_run):
        connection, simulation = traced_run
        trace = simulation.trace
        categories = {event.category for event in trace.events}
        for expected in ("failure", "detect", "report", "informed",
                         "activation", "recovered"):
            assert expected in categories

    def test_trail_is_causally_ordered(self, traced_run):
        _, simulation = traced_run
        trace = simulation.trace

        def first(category):
            events = trace.filter(category=category)
            return events[0].time

        assert (first("failure") <= first("detect") <= first("informed")
                <= first("activation") <= first("recovered"))

    def test_tracing_off_by_default(self):
        network = BCPNetwork(torus(4, 4))
        simulation = ProtocolSimulation(network, ProtocolConfig())
        assert not simulation.trace.enabled


class TestHeartbeatDetection:
    def _run(self, fail_link_index, config=None, horizon=600.0):
        network = BCPNetwork(torus(4, 4, capacity=200.0))
        connection = network.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        config = config or ProtocolConfig(
            heartbeat_detection=True,
            rejoin_timeout=200.0,
        )
        simulation = ProtocolSimulation(network, config, trace=True)
        victim = connection.primary.path.links[fail_link_index]
        simulation.inject_scenario(FailureScenario.of_links([victim]),
                                   at=10.0)
        simulation.run(until=horizon)
        return connection, simulation

    def test_recovery_without_oracle(self):
        connection, simulation = self._run(1)
        record = simulation.metrics.recoveries[connection.connection_id]
        assert record.recovered_serial == 1

    def test_detection_latency_matches_heartbeat_budget(self):
        config = ProtocolConfig(
            heartbeat_detection=True,
            heartbeat_period=2.0,
            heartbeat_miss_threshold=3,
            rejoin_timeout=200.0,
        )
        connection, simulation = self._run(1, config)
        record = simulation.metrics.recoveries[connection.connection_id]
        # Detection via missed beats costs up to threshold*period + D_max
        # (plus the reporting hop); instant detection would inform within
        # a couple of time units.
        assert record.informed_at - record.failed_at >= config.heartbeat_period
        assert record.informed_at - record.failed_at <= (
            config.heartbeat_miss_threshold * config.heartbeat_period
            + config.rcc.max_delay * 4
        )

    def test_heartbeat_detects_both_directions(self):
        # The downstream side sees missed beats; the upstream side sees its
        # RCC give up; both must end up with a detection trace entry.
        connection, simulation = self._run(1)
        events = simulation.trace.filter(category="hb-detect")
        victims = {str(e.description) for e in events}
        assert any("missed heartbeats" in text for text in victims)
        assert any("gave up" in text for text in victims)

    def test_no_spurious_detection_without_failures(self):
        network = BCPNetwork(torus(4, 4, capacity=200.0))
        network.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        simulation = ProtocolSimulation(
            network, ProtocolConfig(heartbeat_detection=True), trace=True
        )
        simulation.run(until=100.0)
        assert simulation.trace.filter(category="hb-detect") == []
        assert simulation.metrics.recoveries == {}

    def test_no_false_positives_under_frame_loss(self):
        # Lost heartbeat frames are retransmitted well inside the
        # detection budget, so a lossy-but-alive link is never declared
        # dead.
        network = BCPNetwork(torus(3, 3, capacity=200.0))
        network.establish(
            0, 4, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        config = ProtocolConfig(
            heartbeat_detection=True,
            heartbeat_period=2.0,
            heartbeat_miss_threshold=6,
            frame_loss_probability=0.1,
            max_retransmissions=10,
        )
        simulation = ProtocolSimulation(network, config, trace=True, seed=3)
        simulation.run(until=120.0)
        assert simulation.trace.filter(category="hb-detect") == []

    def test_repair_resets_suspicion(self):
        network = BCPNetwork(torus(4, 4, capacity=200.0))
        connection = network.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        config = ProtocolConfig(heartbeat_detection=True,
                                rejoin_timeout=500.0)
        simulation = ProtocolSimulation(network, config, trace=True)
        victim = connection.primary.path.links[1]
        simulation.inject_scenario(FailureScenario.of_links([victim]),
                                   at=10.0)
        simulation.repair(victim, at=60.0)
        simulation.run(until=800.0)
        # After the repair, heartbeats resume and the channel rejoins.
        assert simulation.metrics.rejoins > 0

    def test_node_failure_detected_by_all_neighbours(self):
        network = BCPNetwork(torus(4, 4, capacity=200.0))
        connection = network.establish(
            0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        victim = connection.primary.path.interior_nodes[0]
        simulation = ProtocolSimulation(
            network, ProtocolConfig(heartbeat_detection=True,
                                    rejoin_timeout=300.0),
            trace=True,
        )
        simulation.inject_scenario(FailureScenario.of_nodes([victim]),
                                   at=10.0)
        simulation.run(until=600.0)
        record = simulation.metrics.recoveries[connection.connection_id]
        assert record.recovered_serial == 1
        detectors = {e.node for e in simulation.trace.filter(
            category="hb-detect")}
        neighbours = set(network.topology.successors(victim))
        assert detectors & neighbours
