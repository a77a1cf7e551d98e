"""Focused daemon-level tests: reporting rules per scheme, dedup,
rejoin/closure edge cases (Fig. 6), and message plumbing."""

from __future__ import annotations

import pytest

from repro import BCPNetwork, FaultToleranceQoS
from repro.faults import FailureScenario
from repro.network import LinkId
from repro.network.generators import line, ring
from repro.protocol import (
    Direction,
    InvariantAuditor,
    ProtocolConfig,
    ProtocolSimulation,
    SwitchingScheme,
)
from repro.protocol.daemon import BCPDaemon
from repro.protocol.messages import RejoinRequest
from repro.protocol.states import LocalChannelState


def build_ring_network():
    """A 6-ring with one 0->3 connection; primary and backup are the two
    ring halves, making message paths fully predictable."""
    network = BCPNetwork(ring(6, capacity=100.0))
    connection = network.establish(
        0, 3, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
    )
    return network, connection


class TestDirection:
    def test_reverse(self):
        assert Direction.TO_SOURCE.reverse() is Direction.TO_DESTINATION
        assert Direction.TO_DESTINATION.reverse() is Direction.TO_SOURCE


class TestReportingRules:
    @pytest.mark.parametrize(
        "scheme, expect_report_to_source, expect_report_to_dest",
        [
            (SwitchingScheme.SCHEME_1, False, True),
            (SwitchingScheme.SCHEME_2, True, False),
            (SwitchingScheme.SCHEME_3, True, True),
        ],
    )
    def test_who_gets_the_report(self, scheme, expect_report_to_source,
                                 expect_report_to_dest):
        network, connection = build_ring_network()
        simulation = ProtocolSimulation(network, ProtocolConfig(scheme=scheme))
        # Fail the middle link of the primary (1->2): node 1 upstream,
        # node 2 downstream.
        simulation.inject_scenario(
            FailureScenario.of_links([connection.primary.path.links[1]]),
            at=1.0,
        )
        # Which *reports* flow is a per-scheme rule (Fig. 5), visible at
        # the failure-adjacent nodes before the soft state expires.
        simulation.run(until=20.0)
        upstream_reported = simulation.daemons[1].records[
            connection.primary.channel_id
        ].reported
        downstream_reported = simulation.daemons[2].records[
            connection.primary.channel_id
        ].reported
        assert (
            Direction.TO_SOURCE in upstream_reported
        ) == expect_report_to_source
        assert (
            Direction.TO_DESTINATION in downstream_reported
        ) == expect_report_to_dest
        simulation.run(until=100.0)
        source_record = simulation.daemons[0].records[
            connection.primary.channel_id
        ]
        dest_record = simulation.daemons[3].records[
            connection.primary.channel_id
        ]
        # Regardless of which end the report reached, the switchover
        # handshake informs the other end implicitly: adopting the far
        # end's activation demotes the stale primary, so no end-node is
        # left holding the dead channel as PRIMARY under any scheme.
        informed_states = (
            LocalChannelState.UNHEALTHY, LocalChannelState.NON_EXISTENT
        )
        assert source_record.state in informed_states
        assert dest_record.state in informed_states

    def test_duplicate_reports_do_not_duplicate_recovery(self):
        # A node failure makes *two* neighbours report the same channel;
        # the end-nodes must attempt only one activation per backup.
        network, connection = build_ring_network()
        simulation = ProtocolSimulation(network, ProtocolConfig())
        victim = connection.primary.path.interior_nodes[0]
        simulation.inject_scenario(FailureScenario.of_nodes([victim]), at=1.0)
        simulation.run(until=100.0)
        record = simulation.metrics.recoveries[connection.connection_id]
        assert record.recovered_serial == 1
        assert len(record.attempts) == 1

    def test_intermediate_nodes_all_learn_under_scheme3(self):
        network, connection = build_ring_network()
        simulation = ProtocolSimulation(network, ProtocolConfig())
        simulation.inject_scenario(
            FailureScenario.of_links([connection.primary.path.links[1]]),
            at=1.0,
        )
        simulation.run(until=20.0)  # before the rejoin timer fires
        for node in connection.primary.path.nodes:
            record = simulation.daemons[node].records[
                connection.primary.channel_id
            ]
            assert record.state is LocalChannelState.UNHEALTHY, node


class TestRejoinEdgeCases:
    def test_late_rejoin_triggers_closure(self, monkeypatch):
        # Fig. 6: the rejoin timer of node 1 (armed at 1.0) expires at 11.0,
        # after the repair's rejoin-request passed it (7.4) and before the
        # confirm comes back (11.4).  Nodes 2 and 3 have rejoined by then;
        # node 1's closure must sweep them, so the channel ends
        # NON_EXISTENT everywhere, holding nothing, rather than
        # half-repaired.
        closed = []
        receive_closure = BCPDaemon._receive_closure

        def recording(daemon, record, message):
            closed.append((daemon.node, record.state))
            receive_closure(daemon, record, message)

        monkeypatch.setattr(BCPDaemon, "_receive_closure", recording)
        network, connection = build_ring_network()
        simulation = ProtocolSimulation(
            network, ProtocolConfig(rejoin_timeout=10.0))
        primary = connection.primary
        victim = primary.path.links[1]
        simulation.inject_scenario(FailureScenario.of_links([victim]), at=1.0)
        simulation.repair(victim, at=5.4)
        simulation.run(until=400.0)
        # Every node downstream of the expired hop had rejoined, and the
        # closure reached each of them.
        assert closed == [
            (node, LocalChannelState.BACKUP) for node in primary.path.nodes[2:]
        ]
        records = [simulation.daemons[node].records[primary.channel_id]
                   for node in primary.path.nodes]
        for node, record in zip(primary.path.nodes, records):
            assert record.state is LocalChannelState.NON_EXISTENT, node
        # ... and released what it held there: no link of the path stays
        # reserved or drawn for the channel.
        assert simulation._owned(records[0]) == set()
        assert not simulation._drawn_links.get(primary.channel_id)
        assert simulation.metrics.rejoins == 0

    def test_source_redraws_its_mux_failed_spare_before_rejoining(self):
        # The source's own activation finds no spare on the backup's first
        # link: the backup goes U along its path with the mux-failed link
        # recorded at the source.  A rejoin-request through the source
        # must win that spare back, as at every other hop, before the
        # channel may heal (Section 4.4).
        network, connection = build_ring_network()
        simulation = ProtocolSimulation(
            network, ProtocolConfig(rejoin_timeout=100.0))
        backup = connection.backups[0]
        first = backup.path.links[0]
        spare = simulation.spare_remaining(first)
        simulation._spare_pools[first] = 0.0
        simulation.fail(connection.primary.path.links[0], at=1.0)
        source = simulation.daemons[connection.source]
        # What a repair hint brings to the source.
        hint = RejoinRequest(channel_id=backup.channel_id,
                             direction=Direction.TO_SOURCE)
        simulation.engine.schedule_at(20.0, source.receive, hint)
        simulation.run(until=40.0)
        assert source.records[backup.channel_id].mux_failed_link == first
        for node in backup.path.nodes:
            record = simulation.daemons[node].records[backup.channel_id]
            assert record.state is LocalChannelState.UNHEALTHY, node
        assert simulation.metrics.rejoins == 0

        simulation._spare_pools[first] = spare
        simulation.engine.schedule_at(40.0, source.receive, hint)
        simulation.run(until=80.0)
        # The unit was drawn and given straight back: a standby holds none.
        assert simulation.spare_remaining(first) == spare
        assert source.records[backup.channel_id].mux_failed_link is None
        for node in backup.path.nodes:
            record = simulation.daemons[node].records[backup.channel_id]
            assert record.state is LocalChannelState.BACKUP, node
        assert simulation.metrics.rejoins == 1

    def test_prompt_repair_rejoins_everywhere(self):
        network, connection = build_ring_network()
        config = ProtocolConfig(rejoin_timeout=100.0)
        simulation = ProtocolSimulation(network, config)
        victim = connection.primary.path.links[1]
        simulation.inject_scenario(FailureScenario.of_links([victim]), at=1.0)
        simulation.repair(victim, at=4.0)
        simulation.run(until=400.0)
        for node in connection.primary.path.nodes:
            record = simulation.daemons[node].records[
                connection.primary.channel_id
            ]
            assert record.state is LocalChannelState.BACKUP, node
        # One channel healed once: counted where its source leaves U.
        assert simulation.metrics.rejoins == 1

    def test_two_breaks_rejoin_after_the_last_repair(self):
        # The notice of the first repair sends a request that dies at the
        # second break: nothing leaves U until the second repair's request
        # reaches the destination and its confirm returns.
        network, connection = build_ring_network()
        simulation = ProtocolSimulation(
            network, ProtocolConfig(rejoin_timeout=100.0))
        channel_id = connection.primary.channel_id
        first, _, second = connection.primary.path.links
        simulation.inject_scenario(
            FailureScenario.of_links([first, second]), at=1.0)
        simulation.repair(first, at=5.0)
        simulation.repair(second, at=40.0)
        simulation.run(until=39.0)
        for node in connection.primary.path.nodes:
            record = simulation.daemons[node].records[channel_id]
            assert record.state is LocalChannelState.UNHEALTHY, node
        simulation.run(until=400.0)
        for node in connection.primary.path.nodes:
            record = simulation.daemons[node].records[channel_id]
            assert record.state is LocalChannelState.BACKUP, node
        assert simulation.metrics.rejoins == 1

    def test_mid_path_node_repair_rejoins(self):
        network, connection = build_ring_network()
        simulation = ProtocolSimulation(
            network, ProtocolConfig(rejoin_timeout=100.0))
        channel_id = connection.primary.channel_id
        victim = connection.primary.path.interior_nodes[0]
        simulation.fail(victim, at=1.0)
        simulation.repair(victim, at=10.0)
        simulation.run(until=400.0)
        # The repaired node was down when the channel failed, so its own
        # record never left P; every record that went U rejoined.
        for node in connection.primary.path.nodes:
            record = simulation.daemons[node].records[channel_id]
            expected = (LocalChannelState.PRIMARY if node == victim
                        else LocalChannelState.BACKUP)
            assert record.state is expected, node
        assert simulation.metrics.rejoins == 1

    def test_repair_after_the_resends_gave_up_rejoins(self):
        # A request sent when the channel failed would have been resent
        # 8 times and dropped by 25 time units later; the repair at 30 is
        # healed by the request its own notice starts.
        network, connection = build_ring_network()
        simulation = ProtocolSimulation(
            network, ProtocolConfig(rejoin_timeout=100.0))
        victim = connection.primary.path.links[1]
        simulation.inject_scenario(FailureScenario.of_links([victim]), at=1.0)
        simulation.repair(victim, at=30.0)
        simulation.run(until=400.0)
        for node in connection.primary.path.nodes:
            record = simulation.daemons[node].records[
                connection.primary.channel_id
            ]
            assert record.state is LocalChannelState.BACKUP, node
        assert simulation.metrics.rejoins == 1

    def test_rejoined_primary_survives_second_failure(self):
        # After repair+rejoin the old primary serves as the backup for a
        # failure of the *new* primary (the promoted original backup).
        network, connection = build_ring_network()
        config = ProtocolConfig(rejoin_timeout=100.0)
        simulation = ProtocolSimulation(network, config)
        first_victim = connection.primary.path.links[1]
        simulation.inject_scenario(
            FailureScenario.of_links([first_victim]), at=1.0
        )
        simulation.repair(first_victim, at=5.0)
        # Fail the promoted backup after things settle.
        second_victim = connection.backups[0].path.links[1]
        simulation.fail(second_victim, at=60.0)
        simulation.run(until=500.0)
        record = simulation.metrics.recoveries[connection.connection_id]
        # Second recovery reused the rejoined original primary (serial 0).
        assert 0 in record.attempts
        assert not record.unrecoverable


class TestNodeDeath:
    def test_dead_node_daemon_is_silent(self):
        network, connection = build_ring_network()
        simulation = ProtocolSimulation(network, ProtocolConfig())
        victim = connection.primary.path.interior_nodes[0]
        simulation.inject_scenario(FailureScenario.of_nodes([victim]), at=1.0)
        simulation.run(until=200.0)
        # The dead node's records never left their pre-failure state: it
        # processed nothing after the crash.
        dead_daemon = simulation.daemons[victim]
        record = dead_daemon.records[connection.primary.channel_id]
        assert record.state is LocalChannelState.PRIMARY

    def test_failure_of_both_end_nodes(self):
        network, connection = build_ring_network()
        simulation = ProtocolSimulation(network, ProtocolConfig())
        simulation.inject_scenario(
            FailureScenario.of_nodes([connection.source,
                                      connection.destination]),
            at=1.0,
        )
        simulation.run(until=200.0)
        record = simulation.metrics.recoveries[connection.connection_id]
        assert record.endpoint_failed
        assert not record.recovered


class TestTimerLifecycle:
    """Daemon timer lifecycle under overlapping failure/repair: rejoin
    timers re-arming after a rejoin, crashes with a switchover handshake
    in flight, and repairs racing the give-up boundary."""

    def test_rejoin_timer_rearm_while_probe_pending(self):
        # The primary fails, rejoins after a quick repair, then fails
        # AGAIN and is repaired again.  The second failure re-arms the
        # timers the first rejoin cancelled, and the second repair's
        # notice must drive a clean second rejoin cycle — not a double
        # fire, not a channel stuck in U.
        network, connection = build_ring_network()
        config = ProtocolConfig(rejoin_timeout=100.0)
        simulation = ProtocolSimulation(network, config)
        auditor = InvariantAuditor(simulation)
        auditor.attach()
        victim = connection.primary.path.links[1]
        simulation.inject_scenario(FailureScenario.of_links([victim]), at=1.0)
        simulation.repair(victim, at=8.0)
        simulation.fail(victim, at=30.0)
        simulation.repair(victim, at=40.0)
        simulation.run(until=500.0)
        auditor.check_quiescent(drained=simulation.engine.pending == 0)
        assert auditor.ok, [v.detail for v in auditor.violations]
        assert simulation.metrics.rejoins >= 2
        for node in connection.primary.path.nodes:
            record = simulation.daemons[node].records[
                connection.primary.channel_id
            ]
            assert record.state is LocalChannelState.BACKUP, node

    def test_crash_during_inflight_activation(self):
        # The destination crashes with its activation handshake still
        # pending (un-acked).  The crash must clear the pending map (no
        # wedged soft state), and the post-repair reconciliation round
        # must leave both ends in a consistent, auditor-clean state.
        network, connection = build_ring_network()
        simulation = ProtocolSimulation(network, ProtocolConfig())
        auditor = InvariantAuditor(simulation)
        auditor.attach()
        simulation.inject_scenario(
            FailureScenario.of_links([connection.primary.path.links[1]]),
            at=1.0,
        )
        simulation.run(until=3.0)
        destination = simulation.daemons[connection.destination]
        assert destination._pending, "handshake should be in flight"
        simulation.fail(connection.destination, at=3.5)
        simulation.run(until=4.0)
        assert not destination._pending, "crash must clear pending handshakes"
        simulation.repair(connection.destination, at=60.0)
        simulation.run(until=600.0)
        assert not destination._pending
        auditor.check_quiescent(drained=simulation.engine.pending == 0)
        assert auditor.ok, [v.detail for v in auditor.violations]

    def test_repair_racing_give_up_converges(self):
        # The repair lands right at the rejoin-timeout boundary: some
        # nodes' timers have expired (give-up), others' have not.  The
        # Fig. 6 closure-undo must still converge every node to ONE
        # outcome — all rejoined, or all torn down — never a mix.
        network, connection = build_ring_network()
        config = ProtocolConfig(rejoin_timeout=10.0)
        simulation = ProtocolSimulation(network, config)
        auditor = InvariantAuditor(simulation)
        auditor.attach()
        victim = connection.primary.path.links[1]
        simulation.inject_scenario(FailureScenario.of_links([victim]), at=1.0)
        # Timers arm at per-node detection times spread over ~1 hop of
        # report latency; 11.5 lands inside that expiry window.
        simulation.repair(victim, at=11.5)
        simulation.run(until=400.0)
        auditor.check_quiescent(drained=simulation.engine.pending == 0)
        assert auditor.ok, [v.detail for v in auditor.violations]
        states = {
            simulation.daemons[node].records[
                connection.primary.channel_id
            ].state
            for node in connection.primary.path.nodes
        }
        assert len(states) == 1, states
        assert states <= {
            LocalChannelState.BACKUP, LocalChannelState.NON_EXISTENT
        }


class TestLineTopology:
    def test_backupless_connection_reports_unrecoverable(self):
        network = BCPNetwork(line(4, capacity=100.0))
        connection = network.establish(
            0, 3, ft_qos=FaultToleranceQoS(num_backups=0, mux_degree=0)
        )
        simulation = ProtocolSimulation(network, ProtocolConfig())
        simulation.inject_scenario(
            FailureScenario.of_links([LinkId(1, 2)]), at=1.0
        )
        simulation.run(until=200.0)
        record = simulation.metrics.recoveries[connection.connection_id]
        assert record.unrecoverable
        assert not record.recovered
