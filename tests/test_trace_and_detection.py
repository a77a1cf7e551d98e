"""Tests for event tracing."""

from __future__ import annotations

import json

import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.faults import FailureScenario
from repro.network import LinkId
from repro.obs import MetricsRegistry
from repro.protocol import ProtocolConfig, ProtocolSimulation
from repro.sim import TraceLog
from repro.sim.trace import KINDS


@pytest.fixture
def traced_run():
    network = BCPNetwork(torus(4, 4, capacity=200.0))
    connection = network.establish(
        0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
    )
    simulation = ProtocolSimulation(network, ProtocolConfig(),
                                    trace=TraceLog())
    scenario = FailureScenario.of_links([connection.primary.path.links[1]])
    simulation.inject_scenario(scenario, at=5.0)
    simulation.run(until=300.0)
    return connection, simulation


class TestTraceLog:
    def test_disabled_log_records_nothing(self):
        log = TraceLog(keep=0)
        assert not log.active
        log.point("failure", 0, 1.0)
        assert len(log) == 0

    def test_filtering(self):
        log = TraceLog()
        log.point("failure", 1, 1.0)
        log.point("repair", 1, 2.0)
        log.point("failure", 2, 3.0)
        assert [row.node for row in log.select("failure")] == [1, 2]
        assert [row.t for row in log.select("repair")] == [2.0]
        assert log.select("detect") == []

    def test_categories_and_format(self):
        log = TraceLog()
        log.point("detect", 1, 1.0, connection=4, channel=7)
        log.point("detect", 2, 2.0)
        assert [row.kind for row in log.rows] == ["detect", "detect"]
        assert [row.id for row in log.rows] == [1, 2]
        assert log.format().splitlines()[0] == (
            "[     1.000] detect @1 connection=4 channel=7")

    def test_filter_accepts_category_set(self):
        log = TraceLog()
        log.point("failure", 1, 1.0)
        log.point("repair", 1, 2.0)
        log.point("detect", 2, 3.0)
        assert len(log.select("failure", "detect")) == 2
        assert len(log.select("repair")) == 1
        assert log.select() == []

    def test_format_tail(self):
        log = TraceLog(keep=2)
        for i in range(5):
            log.point("failure", 1, float(i), n=i)
        tail = log.format()
        assert "n=4" in tail and "n=3" in tail
        assert "n=0" not in tail
        # Ids keep counting over the rows the tail dropped.
        assert [row.id for row in log.rows] == [4, 5]

    def test_to_jsonl(self):
        import json

        log = TraceLog()
        assert log.to_jsonl() == ""
        log.point("failure", 1, 1.5)
        span = log.begin("episode", None, 2.0, connection=3)
        log.point("detect", 2, 2.5, parent=span)
        log.end(span, 4.0, outcome="recovered")
        text = log.to_jsonl()
        assert text.endswith("\n")
        rows = [json.loads(line) for line in text.splitlines()]
        assert rows[0] == {"id": 1, "parent": None, "kind": "failure",
                           "node": 1, "t": 1.5, "t_end": 1.5, "attrs": {}}
        assert rows[1]["node"] is None and rows[1]["t_end"] == 4.0
        assert rows[1]["attrs"] == {"connection": 3, "outcome": "recovered"}
        assert rows[2]["parent"] == 2
        assert TraceLog.from_jsonl(text).to_jsonl() == text


class TestProtocolTracing:
    def test_recovery_leaves_causal_trail(self, traced_run):
        connection, simulation = traced_run
        trace = simulation.trace
        kinds = {row.kind for row in trace.rows}
        for expected in ("failure", "detect", "report-hop", "informed",
                         "activate", "recovered"):
            assert expected in kinds
        # Each step of the recovery is filed under its episode.
        (episode,) = trace.select("episode")
        for row in trace.select("detect", "informed", "activate"):
            assert row.parent == episode.id

    def test_trail_is_causally_ordered(self, traced_run):
        _, simulation = traced_run
        trace = simulation.trace

        def first(kind):
            return trace.select(kind)[0].t

        assert (first("failure") <= first("detect") <= first("informed")
                <= first("activate") <= first("recovered"))

    def test_tracing_off_by_default(self):
        network = BCPNetwork(torus(4, 4))
        simulation = ProtocolSimulation(network, ProtocolConfig())
        assert not simulation.trace.active

    def test_each_step_is_recorded_once(self):
        """One row per step: the report-hop and detect rows count exactly
        what the protocol counters count, and every exported row names
        itself and its kind."""
        network = BCPNetwork(torus(4, 4))
        qos = FaultToleranceQoS(num_backups=1, mux_degree=1)
        for source, destination in ((0, 10), (1, 11), (5, 15)):
            network.establish(source, destination, ft_qos=qos)
        registry = MetricsRegistry()
        simulation = ProtocolSimulation(network, ProtocolConfig(),
                                        trace=TraceLog(), metrics=registry)
        simulation.fail(LinkId(0, 1), at=1.0)
        simulation.run(until=300.0)
        counters = registry.snapshot()["counters"]
        trace = simulation.trace
        assert counters["protocol.reports_sent"] > 0
        assert (len(trace.select("report-hop"))
                == counters["protocol.reports_sent"])
        assert len(trace.select("detect")) == counters["protocol.detections"]
        ids = [row.id for row in trace.rows]
        assert ids == list(range(1, len(ids) + 1))
        for line in trace.to_jsonl().splitlines():
            row = json.loads(line)
            assert row["id"] and row["kind"] in KINDS
