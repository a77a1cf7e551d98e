"""The event path's fixed facts are paid for once.

A channel record knows its place on its path from the moment it is
built, the Fig. 4 table is looked up by the members' values, each daemon
resolves the RCC link toward a neighbour once, and a run under
``NULL_REGISTRY`` never calls a no-op instrument.  These tests hold each
shortcut to the slow derivation it replaces.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.obs import registry as obs_registry
from repro.protocol import InvariantAuditor, ProtocolSimulation
from repro.protocol.messages import (
    ActivationAck,
    ActivationMessage,
    ChannelClosure,
    FailureReport,
    RejoinConfirm,
    RejoinRequest,
)
from repro.protocol.states import (
    _BY_VALUE,
    TRANSITIONS,
    ChannelEvent,
    IllegalTransitionError,
    LocalChannelRecord,
    LocalChannelState,
)
from repro.routing import Path
from tests.planted import UnguardedSimulation, UnguardedSwitchover
from tests.protocol_oracle import OracleSimulation


def node_failure_run(network, simulation_class=ProtocolSimulation,
                     metrics=NULL_REGISTRY):
    simulation = simulation_class(network, seed=0, metrics=metrics)
    auditor = InvariantAuditor(simulation)
    auditor.attach()
    simulation.fail(5, at=1.0)
    simulation.run(until=500.0)
    assert simulation.engine.pending == 0 and auditor.ok
    return simulation


class TestNullInstrumentsAreNotCalled:
    def test_a_run_under_the_null_registry_calls_no_instrument(
        self, loaded_torus4, monkeypatch
    ):
        calls: Counter = Counter()

        def counting(kind):
            def call(self, *args, **kwargs):
                calls[kind] += 1
            return call

        for cls, method in (
            (obs_registry._NullCounter, "inc"),
            (obs_registry._NullGauge, "set"),
            (obs_registry._NullHistogram, "record"),
            (obs_registry._NullHistogram, "time"),
            (obs_registry._NullSeries, "append"),
        ):
            monkeypatch.setattr(cls, method,
                                counting(f"{cls.__name__}.{method}"))
        simulation = ProtocolSimulation(loaded_torus4, seed=0,
                                        metrics=NULL_REGISTRY)
        auditor = InvariantAuditor(simulation)
        auditor.attach()
        simulation.fail(5, at=1.0)
        simulation.run(until=1.5)
        # A link that dies under a frame in flight makes the RCC resend
        # it until it gives up: the retransmission path runs too.
        busy = next(rcc.link for rcc in simulation._rcc.values()
                    if rcc._pending)
        simulation.fail(busy, at=1.5)
        simulation.run(until=500.0)
        auditor.check_quiescent(drained=simulation.engine.pending == 0)
        assert simulation.engine.pending == 0 and auditor.ok
        assert simulation.metrics.recovered_count() > 0
        assert sum(rcc.stats.retransmissions
                   for rcc in simulation._rcc.values()) > 0
        assert calls == Counter()

    def test_a_live_registry_still_counts_every_layer(self, loaded_torus4):
        registry = MetricsRegistry()
        simulation = node_failure_run(loaded_torus4, metrics=registry)
        totals = simulation.rcc_totals()
        counters = registry.snapshot()["counters"]
        assert counters["rcc.messages_sent"] == totals["messages_sent"]
        assert counters["rcc.frames_sent"] == totals["frames_sent"]
        assert counters["rcc.retransmissions"] == totals["retransmissions"]
        assert counters["engine.events_fired"] == (
            simulation.engine.events_processed)
        assert counters["protocol.messages_received"] > 0
        assert counters["protocol.recoveries"] == (
            simulation.metrics.recovered_count())


class TestRecordPosition:
    @staticmethod
    def derived(record: LocalChannelRecord) -> tuple:
        nodes = record.path.nodes
        index = nodes.index(record.node)
        return (
            index,
            index == 0,
            index == len(nodes) - 1,
            nodes[index - 1] if index > 0 else None,
            nodes[index + 1] if index < len(nodes) - 1 else None,
        )

    @staticmethod
    def fixed(record: LocalChannelRecord) -> tuple:
        return (record.index, record.is_source, record.is_destination,
                record.upstream, record.downstream)

    def test_every_materialised_record_matches_its_path(self, loaded_torus4):
        simulation = node_failure_run(loaded_torus4)
        records = [
            record
            for daemon in simulation.daemons.values()
            for record in daemon.records.touched()
        ]
        assert len(records) > 100
        for record in records:
            assert self.fixed(record) == self.derived(record), record
        assert {record.is_source for record in records} == {True, False}
        assert {record.is_destination for record in records} == {
            True, False}

    @pytest.mark.parametrize("node", [1, 2, 3])
    def test_a_hand_built_record(self, node):
        record = LocalChannelRecord(
            channel_id=0, connection_id=0, serial=1, path=Path((1, 2, 3)),
            node=node, mux_degree=1, bandwidth=1.0,
        )
        assert self.fixed(record) == self.derived(record)
        assert record.is_endpoint == (node != 2)


class TestValueKeyedTransitions:
    def test_the_value_table_is_exactly_transitions_both_ways(self):
        assert {
            (LocalChannelState(state), ChannelEvent(event)): target
            for (state, event), target in _BY_VALUE.items()
        } == TRANSITIONS
        assert {
            (state.value, event.value): target
            for (state, event), target in TRANSITIONS.items()
        } == _BY_VALUE

    @pytest.mark.parametrize("state", list(LocalChannelState))
    @pytest.mark.parametrize("event", list(ChannelEvent))
    def test_transition_follows_the_table(self, state, event):
        for target in LocalChannelState:
            record = LocalChannelRecord(
                channel_id=0, connection_id=0, serial=1,
                path=Path((1, 2)), node=1, mux_degree=1, bandwidth=1.0,
                state=state,
            )
            if TRANSITIONS.get((state, event)) is target:
                record.transition(target, event)
                assert record.state is target
            else:
                with pytest.raises(IllegalTransitionError):
                    record.transition(target, event)
                assert record.state is state


class TestDaemonLookups:
    def test_dispatch_reaches_a_subclass_override(self, loaded_torus4):
        simulation = UnguardedSimulation(loaded_torus4, seed=0,
                                         metrics=NULL_REGISTRY)
        handlers = simulation.daemons[0]._handlers
        assert handlers[ActivationMessage] is (
            UnguardedSwitchover._receive_activation)
        assert set(handlers) == {
            FailureReport, ActivationMessage, ActivationAck,
            RejoinRequest, RejoinConfirm, ChannelClosure,
        }

    @pytest.mark.parametrize("simulation_class",
                             [ProtocolSimulation, OracleSimulation])
    def test_each_neighbour_resolves_to_the_link_toward_it(
        self, loaded_torus4, simulation_class
    ):
        simulation = node_failure_run(loaded_torus4, simulation_class)
        topology = loaded_torus4.topology
        resolved = 0
        for node, daemon in simulation.daemons.items():
            for neighbour, rcc in daemon._links.items():
                assert rcc is simulation._rcc[topology.link(node, neighbour)]
                resolved += 1
        assert resolved > 0
